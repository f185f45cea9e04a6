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

// TestRecordFoldsWhereverTheTipIs: a checkpoint costs its writer the delta
// whoever folds the chain. One history is written three ways — Checkpoint (the
// store holds the tip), Record with the holder's tip at hand, Record without —
// and at every cadence the three stores hold the same bytes, the writer was
// handed the delta and never a base, and the chain stayed within its bound. An
// EncodedState in between folds the log under the holder, whose next delta
// must still land on it, and leaves a store its own tip.
func TestRecordFoldsWhereverTheTipIs(t *testing.T) {
	own, withTip, replayed := New(), New(), New()
	live := windowState(1, 400)
	var tip Tip
	var scratch Delta
	folds := 0
	for v := 1; v <= 40; v++ {
		live.Table("win").Add(fmt.Sprintf("w1-key-%04d", (v*7)%400), 1)
		live.Add("seen", 1)
		before := chainLen(replayed, 1)
		step, enc := tip.Advance(&scratch, v, live)
		if v > 1 && (step != StepDelta || len(enc)*20 > live.Size()) {
			t.Fatalf("v%d: the holder wrote step %d, %d bytes of a %d-byte state; want the delta", v, step, len(enc), live.Size())
		}
		if appended := own.Checkpoint(1, v, live); appended != len(enc) {
			t.Fatalf("v%d: Checkpoint appended %d bytes, the holder wrote %d", v, appended, len(enc))
		}
		if err := withTip.Record(1, v, step, enc, &tip); err != nil {
			t.Fatal(err)
		}
		if err := replayed.Record(1, v, step, enc, nil); err != nil {
			t.Fatal(err)
		}
		if cl := chainLen(replayed, 1); cl > defaultMaxChain {
			t.Fatalf("v%d: chain length %d exceeds %d", v, cl, defaultMaxChain)
		} else if cl <= before && v > 1 {
			folds++
		}
		if v%11 == 0 {
			for _, s := range []*Store{own, withTip, replayed} {
				if b, ver, ok := s.EncodedState(1); !ok || ver != v || !bytes.Equal(b, live.Encode(nil)) {
					t.Fatalf("v%d: EncodedState is not the live state's encoding (ver %d, ok %v)", v, ver, ok)
				}
			}
			if own.groups[1].tip == nil {
				t.Fatalf("v%d: folding its own chain cost the store its tip", v)
			}
		}
		want := chainsOf(own)
		if !bytes.Equal(chainsOf(withTip), want) || !bytes.Equal(chainsOf(replayed), want) {
			t.Fatalf("v%d: the stores differ by who folded", v)
		}
		if !statesEqual(mustMaterialize(t, replayed, 1), live) {
			t.Fatalf("v%d: replayed state diverged", v)
		}
	}
	if folds < 3 {
		t.Fatalf("the history folded %d times; the test wants several", folds)
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
// one Advance takes on equal inputs (what a worker's tip mirror does).
func TestCheckpointNeverWritesMoreThanState(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		s := New()
		live := randState(rng, 25)
		s.Checkpoint(1, 0, live)
		mirror := NewTip(0, live.Clone(), nil)
		var scratch Delta
		for v := 1; v <= 12; v++ {
			if rng.Intn(4) == 0 {
				live = keepCounters(live, randState(rng, 25)) // replaced wholesale
			} else {
				mutate(rng, live)
			}
			step, enc := mirror.Advance(&scratch, v, live)
			appended := s.Checkpoint(1, v, live)
			if appended > live.Size() || appended != len(enc) {
				t.Fatalf("trial %d v%d: appended %d bytes, mirror step %d wrote %d, |σ| = %d", trial, v, appended, step, len(enc), live.Size())
			}
			if step == StepBase && chainLen(s, 1) != 0 {
				t.Fatalf("trial %d v%d: mirror wrote a fresh base but the store's chain is %d long", trial, v, chainLen(s, 1))
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
	if step, _ := tip.Advance(&scratch, 1, live); step != StepBase {
		t.Fatalf("first checkpoint took step %d, want a base", step)
	}
	if step, enc := tip.Advance(&scratch, 2, live); step != StepNone || enc != nil {
		t.Fatalf("second checkpoint of the same state took step %d (%d bytes), want StepNone", step, len(enc))
	}
	live.Add("zero", 0) // −0 + 0 is +0
	live.Table("t").Set("zero", 0)
	if step, _ := tip.Advance(&scratch, 3, live); step == StepNone {
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
// advancing the group's tip — may run on any number of goroutines in any
// order; with the steps recorded in ascending gid the store — its chains and
// byte total after every cadence, every appended count — is the one the serial
// Checkpoint loop produces. Run under -race this is also the check that concurrent Advance
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
			payloads := make([][]byte, groups)
			var wg sync.WaitGroup
			for w := 0; w < width; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Strided and descending: nothing like record order.
					for g := groups - 1 - w; g >= 0; g -= width {
						steps[g], payloads[g] = tips[g].Advance(&scratch[w], c, states[g])
					}
				}(w)
			}
			wg.Wait()
			for g := range steps {
				if err := s.Record(g, c, steps[g], payloads[g], nil); err != nil {
					t.Fatal(err)
				}
				appended = append(appended, len(payloads[g]))
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

// advanceInOnePiece is Advance as it was before it was split into Cut and
// Write: the reference the split must reproduce byte for byte.
func advanceInOnePiece(t *Tip, d *Delta, version int, cur *State) (Step, []byte) {
	t.ver = version
	size := cur.Size()
	if t.st == nil {
		t.st = NewState()
	} else if size = wholeDiffSize(t.st, cur); size == emptyDeltaSize {
		return StepNone, nil
	}
	if size >= cur.Size() {
		enc := cur.Encode(make([]byte, 0, cur.Size()))
		t.st.CopyFrom(cur)
		return StepBase, enc
	}
	wholeDiffInto(d, t.st, cur)
	enc := d.Encode(make([]byte, 0, size))
	d.Apply(t.st)
	return StepDelta, enc
}

// TestCutThenWriteIsAdvance: the write rule in two halves — Cut while the
// state holds still, Write after it has changed again — writes byte for byte
// what Advance in one piece wrote, says how long that is, and leaves the same
// tip, over random histories of scalars, registers and tables with deleted
// cells, from a zero tip, from a NewTip base and from a tip that has taken
// deltas, through all three steps. Advance itself is the two halves in a row.
func TestCutThenWriteIsAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	steps := map[Step]int{}
	for trial := 0; trial < 90; trial++ {
		live := randState(rng, 20)
		split, whole, ref := &Tip{}, &Tip{}, &Tip{}
		var d, wd, rd Delta
		switch trial % 3 {
		case 1: // a base that arrived whole
			split, whole, ref = NewTip(0, live.Clone(), nil), NewTip(0, live.Clone(), nil), NewTip(0, live.Clone(), nil)
		case 2: // a tip that has taken deltas
			for v := -3; v < 0; v++ {
				mutate(rng, live)
				advanceInOnePiece(ref, &rd, v, live)
				split.Advance(&d, v, live)
				whole.Advance(&wd, v, live)
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
			step, n := split.Cut(&d, v, live)
			cut := live.Clone()
			if rng.Intn(2) == 0 {
				mutate(rng, live) // the next period, before the write
			}
			got := split.Write(step, &d, make([]byte, 0, n))
			if step != wantStep || !bytes.Equal(got, want) || len(got) != n {
				t.Fatalf("trial %d v%d: cut %d and wrote %d bytes (said %d), want step %d and %d bytes", trial, v, step, len(got), n, wantStep, len(want))
			}
			if split.Version() != v || !statesEqual(split.State(), ref.State()) || !statesEqual(split.State(), cut) {
				t.Fatalf("trial %d v%d: the tip is not the state as cut", trial, v)
			}
			if step, enc := whole.Advance(&wd, v, cut); step != wantStep || !bytes.Equal(enc, want) || (step == StepNone) != (enc == nil) {
				t.Fatalf("trial %d v%d: Advance took step %d and wrote %d bytes, want step %d and %d bytes", trial, v, step, len(enc), wantStep, len(want))
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

// TestFoldBoundIsWhereRecordFolds: FoldBound, the integer form of the
// compaction bounds a tip-holder writes a base by, agrees with the rule Record
// folds by (entry.folds) at the boundary — the bound itself does not fold, one
// byte more does — for every chain shape around the bounds: bases of even and
// odd length, chains just under, at and past half the base, and the chain
// length cap. Through Store.FoldBound too, and -1 (everything folds) exactly
// where even an empty payload would.
func TestFoldBoundIsWhereRecordFolds(t *testing.T) {
	for base := 0; base <= 64; base++ {
		for deltas := 0; deltas <= defaultMaxChain+1; deltas++ {
			for deltaBytes := 0; deltaBytes <= base/2+3; deltaBytes++ {
				e := &entry{base: make([]byte, base), deltas: make([][]byte, deltas), deltaBytes: deltaBytes}
				b := FoldBound(base, deltas, deltaBytes)
				if b < -1 {
					t.Fatalf("base %d, %d deltas of %d B: bound %d below -1", base, deltas, deltaBytes, b)
				}
				if b >= 0 && e.folds(b) {
					t.Fatalf("base %d, %d deltas of %d B: a delta of the bound %d folds", base, deltas, deltaBytes, b)
				}
				if !e.folds(b + 1) {
					t.Fatalf("base %d, %d deltas of %d B: a delta of %d, one past the bound, does not fold", base, deltas, deltaBytes, b+1)
				}
				if (b == -1) != e.folds(0) {
					t.Fatalf("base %d, %d deltas of %d B: bound %d, but an empty payload folds: %v", base, deltas, deltaBytes, b, e.folds(0))
				}
			}
		}
	}
	s := New()
	s.Checkpoint(3, 1, windowState(1, 40))
	if got, want := s.FoldBound(3), FoldBound(s.Footprint(3), 0, 0); got != want || got < 0 {
		t.Fatalf("Store.FoldBound of a fresh base: %d, want %d", got, want)
	}
	if s.FoldBound(4) != -1 {
		t.Fatalf("Store.FoldBound of an untracked group: %d, want -1", s.FoldBound(4))
	}
}
