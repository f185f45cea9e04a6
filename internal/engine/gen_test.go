package engine

import (
	"fmt"
	"testing"
)

// TestGeneratorsCountLocally: both sources run on the one generator, every
// tuple they emit arrives and every frame it ships is reported.
func TestGeneratorsCountLocally(t *testing.T) {
	const (
		split   = 4800 // tuples per period of the first source
		plain   = 600  // tuples per period of the second source
		periods = 4
	)
	// The case keeps the name it had when a period could arm sub-period
	// boundaries: zero of them is the only way a period runs now.
	t.Run("gen=1/subperiods=0", func(t *testing.T) {
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
		e, err := New(tp, Config{Nodes: 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for p := 1; p <= periods; p++ {
			ps, err := e.RunPeriod()
			if err != nil {
				t.Fatal(err)
			}
			if ps.TuplesIn != split+plain {
				t.Fatalf("period %d: %d tuples arrived, want %d", p, ps.TuplesIn, split+plain)
			}
			// The operator emits nothing, so every cross-node frame of the
			// period is a source frame — the last flush included.
			if gs := &e.gen; gs.batches == 0 || ps.BatchesCrossNode != gs.batches {
				t.Fatalf("period %d: %d frames reported, the generator shipped %d", p, ps.BatchesCrossNode, gs.batches)
			}
		}
	})
}
