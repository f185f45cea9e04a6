package statestore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/codec"
)

// windowState is a windowed operator's state: one table of per-key cells.
func windowState(window, cells int) *State {
	st := NewState()
	st.Add("seen", float64(window*cells))
	t := st.Table("win")
	for c := 0; c < cells; c++ {
		t.Set(fmt.Sprintf("w%d-key-%04d", window, c), float64(c))
	}
	return st
}

// chainsOf reads s byte for byte: its byte total and, per group in ascending
// gid, the version, the base and each delta of the chain. Two stores that log
// the same chains read the same.
func chainsOf(s *Store) []byte {
	b := codec.AppendUvarint(nil, uint64(s.Bytes()))
	for _, gid := range s.Groups() {
		e := s.groups[gid]
		b = codec.AppendUvarint(b, uint64(gid))
		b = codec.AppendUvarint(b, uint64(e.version))
		b = codec.AppendUvarint(b, uint64(len(e.deltas)))
		for _, p := range append([][]byte{e.base}, e.deltas...) {
			b = append(codec.AppendUvarint(b, uint64(len(p))), p...)
		}
	}
	return b
}

// TestCheckpointFreshBaseWhenStateChurns: a state whose delta against the
// tip would be at least as large as the state itself (every cell of the old
// window removed, every cell of the new one added) is written as a fresh
// base: it costs exactly |σ|, leaves no chain to replay or compact, and
// reads back equal to the live state.
func TestCheckpointFreshBaseWhenStateChurns(t *testing.T) {
	s := New()
	s.Checkpoint(7, 1, windowState(1, 300))
	for v := 2; v <= 6; v++ {
		live := windowState(v, 300)
		if d := wholeDiffSize(windowState(v-1, 300), live); d < live.Size() {
			t.Fatalf("v%d: test premise broken: delta %d < state %d", v, d, live.Size())
		}
		before := s.Bytes()
		appended := s.Checkpoint(7, v, live)
		if appended != live.Size() {
			t.Fatalf("v%d: appended %d bytes, want a fresh base of |σ| = %d", v, appended, live.Size())
		}
		if chainLen(s, 7) != 0 {
			t.Fatalf("v%d: chain length %d after a fresh base, want 0", v, chainLen(s, 7))
		}
		if s.Bytes() != live.Size() || before != windowState(v-1, 300).Size() {
			t.Fatalf("v%d: store holds %d bytes (was %d), want one base of %d", v, s.Bytes(), before, live.Size())
		}
		got, ver, ok := s.Materialize(7)
		if !ok || ver != v || !statesEqual(got, live) {
			t.Fatalf("v%d: materialized state (ver %d, ok %v) differs from the live state", v, ver, ok)
		}
		enc, _, _ := s.EncodedState(7)
		if !bytes.Equal(enc, live.Encode(nil)) {
			t.Fatalf("v%d: stored base is not the live state's encoding", v)
		}
	}
}

// TestCheckpointDeltaWhenFewCellsChange: the long tail — a large state of
// which a few cells change per cadence — still appends a small delta, and
// compaction still bounds the chain.
func TestCheckpointDeltaWhenFewCellsChange(t *testing.T) {
	s := New()
	live := windowState(1, 2000)
	s.Checkpoint(3, 1, live)
	for v := 2; v <= 40; v++ {
		tab := live.Table("win")
		for c := 0; c < 5; c++ {
			tab.Add(fmt.Sprintf("w1-key-%04d", (v*7+c)%2000), 1)
		}
		tab.delete(fmt.Sprintf("w1-key-%04d", 1999-v))
		live.Add("seen", 5)
		want := wholeDiff(mustMaterialize(t, s, 3), live).Size()
		appended := s.Checkpoint(3, v, live)
		if appended != want || appended*50 > live.Size() {
			t.Fatalf("v%d: appended %d bytes, want the %d-byte delta (state is %d)", v, appended, want, live.Size())
		}
		if cl := chainLen(s, 3); cl > defaultMaxChain {
			t.Fatalf("v%d: chain length %d exceeds %d", v, cl, defaultMaxChain)
		}
		if !statesEqual(mustMaterialize(t, s, 3), live) {
			t.Fatalf("v%d: materialized state diverged", v)
		}
	}
}

// TestRecordFoldsWhereverTheTipIs: a checkpoint's step is decided where the
// tip is, and the store only logs it. One history is written two ways —
// Checkpoint (the store holds the tip) and Record of what a holder's own tip
// cut and wrote — and at every cadence the two stores hold the same bytes,
// both report the cut, the holder's tip knows the store's chain shape, and
// where that chain does not take the delta the holder wrote its tip whole and
// Record would have refused the delta. An EncodedState in between changes no
// chain and leaves a store its own tip.
func TestRecordFoldsWhereverTheTipIs(t *testing.T) {
	own, logged := New(), New()
	live := windowState(1, 400)
	var tip Tip
	var scratch Delta
	rebases := 0
	for v := 1; v <= 40; v++ {
		live.Table("win").Add(fmt.Sprintf("w1-key-%04d", (v*7)%400), 1)
		live.Add("seen", 1)
		step, cut, enc := tip.advance(&scratch, v, live)
		if v > 1 && (step == StepNone || cut*20 > live.Size()) {
			t.Fatalf("v%d: the holder cut step %d of %d bytes from a %d-byte state; want a delta", v, step, cut, live.Size())
		}
		if v > 1 && step == StepBase {
			if logged.Check(1, StepDelta, cut) == nil || len(enc) != live.Size() {
				t.Fatalf("v%d: the holder wrote %d bytes whole where the store takes its %d-byte delta", v, len(enc), cut)
			}
			rebases++
		}
		if appended := own.Checkpoint(1, v, live); appended != cut {
			t.Fatalf("v%d: Checkpoint reports %d bytes, the holder cut %d", v, appended, cut)
		}
		if err := logged.Record(1, v, step, enc); err != nil {
			t.Fatal(err)
		}
		if got, want := tip.Chain(), logged.groups[1].chain(); got != want {
			t.Fatalf("v%d: the tip says its chain is %+v, the store holds %+v", v, got, want)
		}
		if cl := chainLen(logged, 1); cl > defaultMaxChain {
			t.Fatalf("v%d: chain length %d exceeds %d", v, cl, defaultMaxChain)
		}
		if v%11 == 0 {
			for _, s := range []*Store{own, logged} {
				before := chainsOf(s)
				if b, ver, ok := s.EncodedState(1); !ok || ver != v || !bytes.Equal(b, live.Encode(nil)) {
					t.Fatalf("v%d: EncodedState is not the live state's encoding (ver %d, ok %v)", v, ver, ok)
				}
				if !bytes.Equal(chainsOf(s), before) {
					t.Fatalf("v%d: EncodedState changed the chain", v)
				}
			}
			if own.groups[1].tip == nil {
				t.Fatalf("v%d: reading its own chain cost the store its tip", v)
			}
		}
		if !bytes.Equal(chainsOf(logged), chainsOf(own)) {
			t.Fatalf("v%d: the stores differ by who holds the tip", v)
		}
		if !statesEqual(mustMaterialize(t, logged, 1), live) {
			t.Fatalf("v%d: replayed state diverged", v)
		}
	}
	if rebases < 3 {
		t.Fatalf("the history re-based its chain %d times; the test wants several", rebases)
	}
}

func mustMaterialize(t *testing.T, s *Store, gid int) *State {
	t.Helper()
	st, _, ok := s.Materialize(gid)
	if !ok {
		t.Fatalf("group %d not in store", gid)
	}
	return st
}

// TestCheckpointNeverWritesMoreThanState is the write rule as a property over
// random edit histories: every checkpoint after the first appends no more
// than |σ|, the tip always equals the live state, and the step taken is the
// one advance takes on equal inputs (what a worker's tip mirror does).
func TestCheckpointNeverWritesMoreThanState(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		s := New()
		live := randState(rng, 25)
		s.Checkpoint(1, 0, live)
		mirror := NewTip(0, live.Clone(), nil, Chain{Base: live.Size()})
		var scratch Delta
		for v := 1; v <= 12; v++ {
			if rng.Intn(4) == 0 {
				live = keepCounters(live, randState(rng, 25)) // replaced wholesale
			} else {
				mutate(rng, live)
			}
			step, cut, enc := mirror.advance(&scratch, v, live)
			appended := s.Checkpoint(1, v, live)
			if appended > live.Size() || len(enc) > live.Size() || appended != cut {
				t.Fatalf("trial %d v%d: appended %d bytes, mirror step %d cut %d and wrote %d, |σ| = %d", trial, v, appended, step, cut, len(enc), live.Size())
			}
			if (step == StepBase) != (chainLen(s, 1) == 0) || mirror.Chain() != s.groups[1].chain() {
				t.Fatalf("trial %d v%d: mirror took step %d with chain %+v, the store's chain is %+v", trial, v, step, mirror.Chain(), s.groups[1].chain())
			}
			if tip := mustMaterialize(t, s, 1); !statesEqual(tip, live) || !bytes.Equal(tip.Encode(nil), mirror.State().Encode(nil)) {
				t.Fatalf("trial %d v%d: store tip, tip mirror and live state disagree", trial, v)
			}
		}
	}
}

// TestCheckpointOfNaNAndNegativeZeroIsStable: cells are compared by their
// bits, so a state holding a NaN (which == says differs from itself) and a −0
// (which == says equals +0) checkpoints as unchanged the second time, a sign
// flip of zero is a change, and the tip encodes exactly as the state does.
func TestCheckpointOfNaNAndNegativeZeroIsStable(t *testing.T) {
	live := NewState()
	live.Add("nan", math.NaN())
	live.Add("zero", math.Copysign(0, -1))
	live.Table("t").Set("nan", math.NaN())
	live.Table("t").Set("zero", math.Copysign(0, -1))
	if d := wholeDiff(live, live.Clone()); !deltaEmpty(d) || wholeDiffSize(live, live.Clone()) != emptyDeltaSize {
		t.Fatalf("a state with a NaN differs from its own clone: delta of %d bytes", d.Size())
	}
	var tip Tip
	var scratch Delta
	if step, _, _ := tip.advance(&scratch, 1, live); step != StepBase {
		t.Fatalf("first checkpoint took step %d, want a base", step)
	}
	if step, _, enc := tip.advance(&scratch, 2, live); step != StepNone || enc != nil {
		t.Fatalf("second checkpoint of the same state took step %d (%d bytes), want StepNone", step, len(enc))
	}
	live.Add("zero", 0) // −0 + 0 is +0
	live.Table("t").Set("zero", 0)
	if step, _, _ := tip.advance(&scratch, 3, live); step == StepNone {
		t.Fatal("−0 → +0 went unnoticed: the tip no longer encodes as the state does")
	}
	if !bytes.Equal(tip.State().Encode(nil), live.Encode(nil)) {
		t.Fatal("tip and state encode differently")
	}
}

// TestDiffSizeCountsRemovedCellsArithmetically pins wholeDiffSize to the size
// of the delta wholeDiffInto builds, on the shapes where removed cells are
// counted rather than searched for: partial overlap, no overlap, shrink to
// empty.
func TestDiffSizeCountsRemovedCellsArithmetically(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	check := func(name string, old, new *State) {
		t.Helper()
		d := wholeDiff(old, new)
		if got := wholeDiffSize(old, new); got != d.Size() || got != len(d.Encode(nil)) {
			t.Fatalf("%s: wholeDiffSize = %d, Delta.Size = %d, encoded = %d", name, got, d.Size(), len(d.Encode(nil)))
		}
		if (wholeDiffSize(old, new) == emptyDeltaSize) != deltaEmpty(d) {
			t.Fatalf("%s: wholeDiffSize says empty = %v, delta says %v", name, wholeDiffSize(old, new) == emptyDeltaSize, deltaEmpty(d))
		}
	}
	for trial := 0; trial < 200; trial++ {
		a := randState(rng, 30)
		b := a.Clone()
		mutate(rng, b)
		check("mutated", a, b)
		check("reverse", b, keepCounters(b, a.Clone()))
		check("same", a, a.Clone())
	}
	check("disjoint windows", windowState(1, 50), windowState(2, 50))
	counterOnly := NewState()
	counterOnly.Add("seen", 50)
	check("to no tables", windowState(1, 50), counterOnly)
	emptied := windowState(1, 50)
	emptied.Table("win").clear()
	check("cells gone, table stays", windowState(1, 50), emptied)
}

// TestAdvanceRecordScheduleIndependent: the per-group half of a checkpoint —
// advancing the group's tip, which decides its step — may run on any number of goroutines in any
// order; with the steps recorded in ascending gid the store — its chains and
// byte total after every cadence, every cut — is the one the serial
// Checkpoint loop produces. Run under -race this is also the check that concurrent advance
// calls on distinct tips share nothing.
func TestAdvanceRecordScheduleIndependent(t *testing.T) {
	const groups, cadences = 48, 6
	history := func() [][]*State {
		rng := rand.New(rand.NewSource(41))
		h := make([][]*State, cadences)
		live := make([]*State, groups)
		for c := range h {
			h[c] = make([]*State, groups)
			for g := range live {
				switch {
				case c == 0 || g%3 == 0:
					live[g] = windowState(c, 20+g) // churns fully
				default:
					live[g] = live[g].Clone()
					mutate(rng, live[g])
				}
				h[c][g] = live[g]
			}
		}
		return h
	}()

	run := func(width int) ([][]byte, []int) {
		s := New()
		var chains [][]byte
		var appended []int
		scratch := make([]Delta, width)
		tips := make([]Tip, groups)
		for c, states := range history {
			steps := make([]Step, groups)
			cuts := make([]int, groups)
			payloads := make([][]byte, groups)
			var wg sync.WaitGroup
			for w := 0; w < width; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Strided and descending: nothing like record order.
					for g := groups - 1 - w; g >= 0; g -= width {
						steps[g], cuts[g], payloads[g] = tips[g].advance(&scratch[w], c, states[g])
					}
				}(w)
			}
			wg.Wait()
			for g := range steps {
				if err := s.Record(g, c, steps[g], payloads[g]); err != nil {
					t.Fatal(err)
				}
				appended = append(appended, cuts[g])
			}
			chains = append(chains, chainsOf(s))
		}
		return chains, appended
	}

	serial := New()
	var want [][]byte
	var serialAppended []int
	for c, states := range history {
		for g, st := range states {
			serialAppended = append(serialAppended, serial.Checkpoint(g, c, st))
		}
		want = append(want, chainsOf(serial))
	}
	for _, width := range []int{1, 2, 4} {
		chains, appended := run(width)
		for c := range want {
			if !bytes.Equal(chains[c], want[c]) {
				t.Errorf("width %d, cadence %d: store chains differ from the serial checkpoint loop's", width, c)
			}
		}
		if !slices.Equal(appended, serialAppended) {
			t.Errorf("width %d: appended byte counts differ from the serial loop's", width)
		}
	}
}

// TestGroupsStaysSorted: the gid list is maintained, not rebuilt — whatever
// the order groups are checkpointed in.
func TestGroupsStaysSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := New()
	want := map[int]bool{}
	st := windowState(1, 3)
	for step := 0; step < 400; step++ {
		gid := rng.Intn(600)
		s.Checkpoint(gid, step, st)
		want[gid] = true
		got := s.Groups()
		if len(got) != len(want) || !slices.IsSorted(got) || s.Len() != len(want) {
			t.Fatalf("step %d: Groups() = %v, want the %d tracked gids ascending", step, got, len(want))
		}
		for _, g := range got {
			if !want[g] {
				t.Fatalf("step %d: Groups() lists untracked gid %d", step, g)
			}
		}
	}
}

// advanceInOnePiece is advance as it was before it was split into Cut and
// Write, with the chain bound: the reference the split must reproduce byte
// for byte.
func advanceInOnePiece(t *Tip, d *Delta, version int, cur *State) (Step, []byte) {
	t.ver = version
	size := cur.Size()
	if t.st == nil {
		t.st = NewState()
	} else if size = wholeDiffSize(t.st, cur); size == emptyDeltaSize {
		return StepNone, nil
	}
	if size >= cur.Size() || !t.chain.takes(size) {
		enc := cur.Encode(make([]byte, 0, cur.Size()))
		t.st.CopyFrom(cur)
		t.chain = Chain{Base: len(enc)}
		return StepBase, enc
	}
	wholeDiffInto(d, t.st, cur)
	enc := d.Encode(make([]byte, 0, size))
	d.Apply(t.st)
	t.chain.Deltas++
	t.chain.DeltaBytes += size
	return StepDelta, enc
}

// TestCutThenWriteIsAdvance: the write rule in two halves — Cut while the
// state holds still, Write after it has changed again — writes byte for byte
// what advance in one piece wrote, says how long that is, and leaves the same
// tip, over random histories of scalars, registers and tables with deleted
// cells, from a zero tip, from a NewTip base and from a tip that has taken
// deltas, through all three steps. advance itself is the two halves in a row.
func TestCutThenWriteIsAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	steps := map[Step]int{}
	for trial := 0; trial < 90; trial++ {
		live := randState(rng, 20)
		split, whole, ref := &Tip{}, &Tip{}, &Tip{}
		var d, wd, rd Delta
		switch trial % 3 {
		case 1: // a base that arrived whole
			chain := Chain{Base: live.Size()}
			split, whole, ref = NewTip(0, live.Clone(), nil, chain), NewTip(0, live.Clone(), nil, chain), NewTip(0, live.Clone(), nil, chain)
		case 2: // a tip that has taken deltas
			for v := -3; v < 0; v++ {
				mutate(rng, live)
				advanceInOnePiece(ref, &rd, v, live)
				split.advance(&d, v, live)
				whole.advance(&wd, v, live)
			}
		}
		for v := 1; v <= 12; v++ {
			switch rng.Intn(4) {
			case 0: // unchanged since the last cut, unless it changed after
			case 1:
				live = keepCounters(live, randState(rng, 20)) // replaced wholesale
			default:
				mutate(rng, live)
			}
			wantStep, want := advanceInOnePiece(ref, &rd, v, live)
			step, _, n := split.Cut(&d, v, live)
			cut := live.Clone()
			if rng.Intn(2) == 0 {
				mutate(rng, live) // the next period, before the write
			}
			got := split.Write(step, &d, make([]byte, 0, n))
			if step != wantStep || !bytes.Equal(got, want) || len(got) != n {
				t.Fatalf("trial %d v%d: cut %d and wrote %d bytes (said %d), want step %d and %d bytes", trial, v, step, len(got), n, wantStep, len(want))
			}
			if split.Version() != v || split.Chain() != ref.chain || !statesEqual(split.State(), ref.State()) || !statesEqual(split.State(), cut) {
				t.Fatalf("trial %d v%d: the tip is not the state as cut", trial, v)
			}
			if step, _, enc := whole.advance(&wd, v, cut); step != wantStep || !bytes.Equal(enc, want) || (step == StepNone) != (enc == nil) {
				t.Fatalf("trial %d v%d: advance took step %d and wrote %d bytes, want step %d and %d bytes", trial, v, step, len(enc), wantStep, len(want))
			}
			steps[step]++
		}
	}
	for _, s := range []Step{StepNone, StepDelta, StepBase} {
		if steps[s] < 20 {
			t.Fatalf("step %d taken %d times; the histories want all three often (%v)", s, steps[s], steps)
		}
	}
}

// TestFoldBoundIsWhereRecordFolds: the chain bound (Chain.takes) is where a
// tip's Cut writes the tip whole instead of its delta, and where Record starts
// refusing that delta — at the bound the delta is taken, one byte past it not
// — for every chain shape around the bound: bases of even and odd length,
// chains just under, at and past half the base, and the chain length cap. The
// cut still reports the delta, and the tip's chain after the cut is the
// store's after it records what the cut wrote. A base is always taken; a
// group without a chain takes nothing else.
func TestFoldBoundIsWhereRecordFolds(t *testing.T) {
	old := windowState(1, 40)
	cur := old.Clone()
	cur.Table("win").Set("w1-key-0003", -1)
	n := wholeDiffSize(old, cur)
	var d Delta
	for deltas := 0; deltas <= defaultMaxChain+1; deltas++ {
		for _, deltaBytes := range []int{0, 1, n, 2*n + 1} {
			bound := 2 * (deltaBytes + n) // the smallest base that takes it
			for base := bound - 2; base <= bound+2; base++ {
				chain := Chain{base, deltas, deltaBytes}
				takes := deltas < defaultMaxChain && base >= bound
				tip := NewTip(0, old.Clone(), nil, chain)
				step, cut, size := tip.Cut(&d, 1, cur)
				wantStep, wantSize, wantChain := StepDelta, n, Chain{base, deltas + 1, deltaBytes + n}
				if !takes {
					wantStep, wantSize, wantChain = StepBase, cur.Size(), Chain{Base: cur.Size()}
				}
				if step != wantStep || cut != n || size != wantSize || tip.Chain() != wantChain {
					t.Fatalf("chain %+v, a %d-byte delta: cut step %d, cut %d, size %d, chain %+v; want step %d, %d, %d, %+v",
						chain, n, step, cut, size, tip.Chain(), wantStep, n, wantSize, wantChain)
				}
				s := New()
				s.groups[7] = &entry{base: make([]byte, base), deltas: make([][]byte, deltas), deltaBytes: deltaBytes}
				s.gids = []int{7}
				if err := s.Check(7, StepDelta, n); (err == nil) != takes {
					t.Fatalf("chain %+v: Check of a %d-byte delta says %v, the bound says takes = %v", chain, n, err, takes)
				}
				payload := tip.Write(step, &d, nil)
				if err := s.Record(7, 1, step, payload); err != nil || len(payload) != size || s.groups[7].chain() != tip.Chain() {
					t.Fatalf("chain %+v: recording the %d-byte payload: %v; the store's chain is %+v, the tip's %+v", chain, len(payload), err, s.groups[7].chain(), tip.Chain())
				}
			}
		}
	}
	s := New()
	if s.Check(4, StepDelta, 0) == nil || s.Check(4, StepNone, 0) == nil || s.Check(4, StepBase, 10) != nil {
		t.Fatal("a group without a chain must take a base and nothing else")
	}
	if err := s.Record(4, 1, StepDelta, []byte{1}); err == nil || s.Len() != 0 {
		t.Fatalf("Record took a delta for a group without a chain (%v)", err)
	}
}
