package statestore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// trackedValues are the cell values a history writes: ordinary ones, both
// zeros and two NaN payloads, which wholeDiffSize tells apart by their bits.
var trackedValues = []float64{
	0, math.Copysign(0, -1), 1, 2.5, -7,
	math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Inf(1),
}

// trackedOps weighs the operations of trackedHistory by kind: writes and
// barrier readings are the common ones, as on a shard, so that a tip's record
// sees several readings between two marks.
var trackedOps = func() []int {
	var ops []int
	for kind, weight := range []int{8, 6, 6, 3, 10, 1, 1, 1, 1, 1, 1, 16, 8, 3, 1, 1, 1, 1, 1, 1} {
		for range weight {
			ops = append(ops, kind)
		}
	}
	return ops
}()

// trackedHistory drives a live state and the checkpoint tip beside it through
// a history of operations read from next (next(n) is in [0, n), and ok false
// ends the history), the way a shard drives them: table writes on existing and
// new keys, writes back to the tip's value, cell deletions, clears and
// re-created tables, counter writes, cuts of every step, delta adoption,
// recovery, recycling by Reset and a second tip that cuts the same
// state. At every reading it holds each tracked reader to the whole walk's
// answer, byte for byte: Tip.Measure to wholeDiffSize, Tip.DiffInto to
// wholeDiffInto in both encodings, and Tip.Cut to a cut made with
// wholeDiffSize, wholeDiffInto and Apply on a copy of the tip (step, length,
// written bytes and the tip it leaves, in storage order). It returns how often each step was cut, and how many of the
// readings found a table that tracks the tip.
func trackedHistory(t *testing.T, next func(n int) (int, bool)) (map[Step]int, int) {
	t.Helper()
	live, tip, other := NewState(), &Tip{}, &Tip{}
	// spare is the state the history dropped last, Reset: the next state the
	// history needs is that one, so recycled arenas meet stale marks.
	var spare *State
	recycled := func() *State {
		if st := spare; st != nil {
			spare = nil
			return st
		}
		return NewState()
	}
	drop := func(st *State) {
		st.Reset()
		spare = st
	}
	var d, rd Delta
	steps, tracked := map[Step]int{}, 0
	ver := 0
	pick := func(n int) int { v, _ := next(n); return v }
	// Most writes hit a few hot cells; the rest spread over enough cells that a
	// table's record spans several words.
	cell := func() string {
		if pick(2) == 0 {
			return fmt.Sprintf("c%03d", pick(6))
		}
		return fmt.Sprintf("c%03d", pick(150))
	}
	table := func() string { return fmt.Sprintf("t%d", pick(3)) }
	value := func() float64 { return trackedValues[pick(len(trackedValues))] }
	// Increments stay finite, so that a cell can be added back to its old
	// value; Set writes the special values.
	inc := func() float64 { return []float64{0, 1, -1, 2.5}[pick(4)] }
	for op := 0; ; op++ {
		k, ok := next(len(trackedOps))
		if !ok {
			return steps, tracked
		}
		kind := trackedOps[k]
		if kind >= 11 && kind <= 16 {
			for _, name := range fieldNames(live, kTab) {
				if tip.State() != nil && live.LookupTable(name).tracks(tip.tok, tip.State().LookupTable(name)) {
					tracked++
				}
			}
		}
		ctx := fmt.Sprintf("op %d (kind %d)", op, kind)
		switch kind {
		case 0, 1:
			live.Table(table()).Add(cell(), inc())
		case 2:
			live.Table(table()).Set(cell(), value())
		case 3:
			live.Table(table()).AddBytes([]byte(cell()), inc())
		case 4: // a cell that differs written back to the tip's value
			if tip.State() == nil {
				continue
			}
			name := table()
			tt, lt := tip.State().LookupTable(name), live.LookupTable(name)
			if tt == nil {
				continue
			}
			var back []int
			for i, k := range tt.keys {
				if v, ok := lt.Lookup(k); ok && !sameNum(v, tt.vals[i]) {
					back = append(back, i)
				}
			}
			if len(back) > 0 {
				i := back[pick(len(back))]
				lt.Set(tt.keys[i], tt.vals[i])
			}
		case 5:
			if lt := live.LookupTable(table()); lt.Len() > 0 {
				lt.delete(lt.keys[pick(lt.Len())])
			}
		case 6:
			live.LookupTable(table()).clear()
		case 7:
			name := table()
			live.ClearTable(name)
			if pick(2) == 0 {
				live.Table(name).Set(cell(), value())
			}
		case 8:
			live.Add(fmt.Sprintf("n%d", pick(3)), inc())
		case 9:
			live.setNum(live.intern(fmt.Sprintf("n%d", pick(3)), true), value())
		case 10: // was counter deletion: a counter is never deleted
			pick(3) // the draw it made, so that the rest of a history stays as it was
		case 11, 12: // a barrier's reading
			if got, want := tip.Measure(ver, live), wholeDiffSize(tip.State(), live); got != want {
				t.Fatalf("%s: Measure = %d, the whole walk sizes %d", ctx, got, want)
			}
		case 13: // a delta move's synchronous part
			tip.DiffInto(&d, live)
			wholeDiffInto(&rd, tip.State(), live)
			if got, want := d.EncodeTransfer(nil), rd.EncodeTransfer(nil); !bytes.Equal(got, want) {
				t.Fatalf("%s: wholeDiffInto transfer bytes\n got %x\nwant %x", ctx, got, want)
			}
			if got, want := d.Encode(nil), rd.Encode(nil); !bytes.Equal(got, want) {
				t.Fatalf("%s: wholeDiffInto canonical bytes\n got %x\nwant %x", ctx, got, want)
			}
		case 14, 15: // a checkpoint, taking the reading of the same barrier or not
			ver++
			if kind == 15 {
				tip.Measure(ver, live)
			}
			ref := &Tip{chain: tip.Chain()}
			if tip.State() != nil {
				ref.st = tip.State().Clone()
			}
			wantStep, want := wholeWalkCut(ref, &rd, live)
			step, _, n := tip.Cut(&d, ver, live)
			got := tip.Write(step, &d, nil)
			if step != wantStep || n != len(got) || !bytes.Equal(got, want) {
				t.Fatalf("%s: cut step %d, %d bytes (said %d); the whole walk: step %d, %d bytes", ctx, step, len(got), n, wantStep, len(want))
			}
			if !sameCells(tip.State(), ref.State()) {
				t.Fatalf("%s: the cut tip differs from the whole walk's, or holds its cells in another order", ctx)
			}
			steps[step]++
		case 16: // a delta move adopted: the tip's bytes and the delta since
			if tip.State() == nil {
				continue
			}
			tip.DiffInto(&d, live)
			enc, delta := tip.Encoding(), d.EncodeTransfer(nil)
			base, st := recycled(), recycled()
			if err := DecodeStateInto(enc, base); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if _, err := DecodeDeltaInto(delta, &rd); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			st.CopyFrom(base)
			adopted := NewTip(tip.Version(), base, enc, tip.Chain())
			adopted.Track(st)
			rd.Apply(st)
			if !statesEqual(st, live) {
				t.Fatalf("%s: the adopted state differs from the one that moved", ctx)
			}
			drop(live)
			live, tip = st, adopted
		case 17: // recovery from the tip's bytes
			if tip.State() == nil {
				continue
			}
			enc := tip.Encoding()
			st := recycled()
			if err := DecodeStateInto(enc, st); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			drop(live)
			live, tip = st, NewTip(tip.Version(), st.Clone(), enc, Chain{Base: len(enc)})
			tip.Track(live)
			// The other tip may hold counters written after tip's checkpoint,
			// which the recovered state does not: it starts over, as every tip
			// of a replaced state does (wholeDiff's precondition).
			other = &Tip{}
		case 18: // a whole move: the state arrives recycled and without a tip
			enc := live.EncodeTransfer(nil)
			live.Reset()
			if err := DecodeStateInto(enc, live); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			tip = &Tip{}
		case 19: // another tip cuts the same state: the first one's record ends
			ver++
			other.Cut(&rd, ver, live)
		}
	}
}

// wholeWalkCut is Tip.Cut followed by Tip.Write as they were before tables
// tracked their changes: the delta sized and cut by walking every cell, then
// applied to the tip, and written whole where the tip's chain does not take
// it.
func wholeWalkCut(ref *Tip, d *Delta, cur *State) (Step, []byte) {
	size := cur.Size()
	if ref.st == nil {
		ref.st = NewState()
	} else if size = wholeDiffSize(ref.st, cur); size == emptyDeltaSize {
		return StepNone, nil
	}
	if size >= cur.Size() {
		ref.st.CopyFrom(cur)
		return StepBase, ref.Write(StepBase, d, nil)
	}
	wholeDiffInto(d, ref.st, cur)
	d.Apply(ref.st)
	if !ref.chain.takes(size) {
		return StepBase, ref.Write(StepBase, d, nil)
	}
	return StepDelta, ref.Write(StepDelta, d, nil)
}

// sameCells reports whether a and b encode alike and hold every table's cells
// in the same storage order, the order a later transfer delta lists them in.
func sameCells(a, b *State) bool {
	if !bytes.Equal(a.Encode(nil), b.Encode(nil)) {
		return false
	}
	for _, name := range fieldNames(a, kTab) {
		at, bt := a.LookupTable(name), b.LookupTable(name)
		for i, k := range at.keys {
			if bt.keys[i] != k || !sameNum(bt.vals[i], at.vals[i]) {
				return false
			}
		}
	}
	return true
}

// TestTrackedReadersMatchTheWholeWalk runs trackedHistory over random
// histories long enough to cut every step many times.
func TestTrackedReadersMatchTheWholeWalk(t *testing.T) {
	total, tracked := map[Step]int{}, 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		left := 3000
		steps, n := trackedHistory(t, func(n int) (int, bool) {
			left--
			return rng.Intn(n), left > 0
		})
		for s, n := range steps {
			total[s] += n
		}
		tracked += n
	}
	for _, s := range []Step{StepNone, StepDelta, StepBase} {
		if total[s] < 50 {
			t.Fatalf("step %d cut %d times; the histories want every step often (%v)", s, total[s], total)
		}
	}
	if tracked < 2000 {
		t.Fatalf("%d readings of a tracked table; the histories want many", tracked)
	}
	t.Logf("steps %v, tracked readings %d", total, tracked)
}

// FuzzTrackedDiff runs trackedHistory on histories read from the input, a
// byte per choice.
func FuzzTrackedDiff(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 14, 0, 1, 5, 0, 11, 0, 0, 2, 1, 1, 4, 13, 14})
	f.Add([]byte{2, 0, 3, 5, 15, 16, 1, 1, 0, 7, 11, 13, 15, 17, 0, 2, 1, 6, 14, 19, 0, 14})
	f.Fuzz(func(t *testing.T, ops []byte) {
		trackedHistory(t, func(n int) (int, bool) {
			if len(ops) == 0 {
				return 0, false
			}
			v := int(ops[0]) % n
			ops = ops[1:]
			return v, true
		})
	})
}

// TestTrackedSizingFollowsWritesBack: a cell that differs from the tip at one
// reading, equals it again at the next and differs at the third is counted at
// the first and the third readings only, under a tip that tracks its table.
func TestTrackedSizingFollowsWritesBack(t *testing.T) {
	live, tip := NewState(), &Tip{}
	live.Table("t").Set("a", 1)
	live.Table("t").Set("b", 2)
	var d Delta
	tip.Cut(&d, 1, live)
	for i, v := range []float64{5, 1, 7, 7, 1, math.Copysign(0, -1)} {
		live.Table("t").Set("a", v)
		if got, want := tip.Measure(1, live), wholeDiffSize(tip.State(), live); got != want {
			t.Fatalf("reading %d (a = %v): Measure = %d, the whole walk sizes %d", i, v, got, want)
		}
	}
}
