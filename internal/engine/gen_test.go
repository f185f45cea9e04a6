package engine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestGeneratorsCountLocally: whatever the generator count and whether or
// not the period armed sub-period boundaries, the emitted total the next
// period calibrates its boundaries from (lastSrcTuples) is the sum of the
// generators' own counts — each generator emits its share of the
// partitionable source, generator 0 the plain source on top — every armed
// boundary fires exactly once, in order, every tuple arrives and every
// shipped frame is reported.
func TestGeneratorsCountLocally(t *testing.T) {
	const (
		split   = 4800 // tuples per period of the partitionable source
		plain   = 600  // tuples per period of the source without a split hook
		periods = 4
	)
	for _, gen := range []int{1, 2, 4} {
		for _, sub := range []int{0, 4} {
			t.Run(fmt.Sprintf("gen=%d/subperiods=%d", gen, sub), func(t *testing.T) {
				tp := NewTopology()
				tp.AddSourceParts("split", func(period, part, parts int, emit Emit) {
					for i := part; i < split; i += parts {
						emit(NewTuple(fmt.Sprintf("s%03d", i%97), int64(i)))
					}
				})
				tp.AddSource("plain", func(period int, emit Emit) {
					for i := 0; i < plain; i++ {
						emit(NewTuple(fmt.Sprintf("p%03d", i%31), int64(i)))
					}
				})
				tp.AddOperator(&Operator{
					Name: "count", KeyGroups: 12,
					Proc: func(tu *Tuple, st *State, emit Emit) { st.Add("n", 1) },
				})
				tp.Connect("split", "count")
				tp.Connect("plain", "count")
				e, err := New(tp, Config{Nodes: 3, GenWorkers: gen, SubPeriods: sub}, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				var fired []int // sub index of every boundary, in firing order
				e.SetSubObserver(func(_ *core.Snapshot, _, subIdx int) []core.Move {
					fired = append(fired, subIdx)
					return nil
				})
				for p := 1; p <= periods; p++ {
					fired = fired[:0]
					ps, err := e.RunPeriod()
					if err != nil {
						t.Fatal(err)
					}
					if ps.TuplesIn != split+plain {
						t.Fatalf("period %d: %d tuples arrived, want %d", p, ps.TuplesIn, split+plain)
					}
					sum, frames := int64(0), int64(0)
					for w, gs := range e.genStates[:gen] {
						want := int64(split / gen)
						if w == 0 {
							want += plain
						}
						if gs.emitted != want {
							t.Fatalf("period %d: generator %d counted %d tuples, want %d", p, w, gs.emitted, want)
						}
						sum += gs.emitted
						frames += gs.batches
					}
					// The operator emits nothing, so every cross-node frame of
					// the period is a source frame — the last flush included.
					if frames == 0 || ps.BatchesCrossNode != frames {
						t.Fatalf("period %d: %d frames reported, generators shipped %d", p, ps.BatchesCrossNode, frames)
					}
					if e.lastSrcTuples != sum || sum != split+plain {
						t.Fatalf("period %d: lastSrcTuples = %d, generators counted %d, emitted %d", p, e.lastSrcTuples, sum, split+plain)
					}
					// The first period has no volume to calibrate from and arms
					// nothing; every later one fires boundaries 1..sub-1 once each.
					var want []int
					if p > 1 {
						for i := 1; i < sub; i++ {
							want = append(want, i)
						}
					}
					if !slices.Equal(fired, want) {
						t.Fatalf("period %d: boundaries fired %v, want %v", p, fired, want)
					}
				}
			})
		}
	}
}
