package engine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestGeneratorsCountLocally: whether or not the period armed sub-period
// boundaries, the emitted total the next period calibrates its boundaries
// from (lastSrcTuples) is the generator's own count of what both sources
// emitted, every armed boundary fires exactly once, in order, every tuple
// arrives and every shipped frame is reported.
func TestGeneratorsCountLocally(t *testing.T) {
	const (
		split   = 4800 // tuples per period of the first source
		plain   = 600  // tuples per period of the second source
		periods = 4
	)
	for _, sub := range []int{0, 4} {
		t.Run(fmt.Sprintf("gen=1/subperiods=%d", sub), func(t *testing.T) {
			tp := NewTopology()
			tp.AddSource("split", func(period int, emit Emit) {
				for i := 0; i < split; i++ {
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
			e, err := New(tp, Config{Nodes: 3, SubPeriods: sub}, nil)
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
				gs := &e.gen
				if gs.emitted != split+plain {
					t.Fatalf("period %d: generator counted %d tuples, want %d", p, gs.emitted, split+plain)
				}
				// The operator emits nothing, so every cross-node frame of
				// the period is a source frame — the last flush included.
				if gs.batches == 0 || ps.BatchesCrossNode != gs.batches {
					t.Fatalf("period %d: %d frames reported, the generator shipped %d", p, ps.BatchesCrossNode, gs.batches)
				}
				if e.lastSrcTuples != gs.emitted {
					t.Fatalf("period %d: lastSrcTuples = %d, the generator counted %d", p, e.lastSrcTuples, gs.emitted)
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
