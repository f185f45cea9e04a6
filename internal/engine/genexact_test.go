package engine

// Property test for source generation under reconfiguration: the one
// generator's tuple multiset must arrive exactly — under sharding, staged
// migrations and a scale-in — and in per-key FIFO order.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
)

// partCountTopology builds src → A → B where src emits perPeriod tuples
// over `keys` round-robin keys, each
// tagged with a strictly increasing per-key sequence number. Both
// operators count per-key arrivals in state; B additionally feeds the
// returned FIFO watcher.
func partCountTopology(keys, perPeriod, kgsA, kgsB int) (*Topology, *fifoWatcher) {
	w := &fifoWatcher{lastSeq: map[string]float64{}, inverted: map[string]bool{}}
	tp := NewTopology()
	tp.AddSource("src", func(period int, emit Emit) {
		for i := 0; i < perPeriod; i++ {
			key := fmt.Sprintf("key%02d", i%keys)
			seq := float64(period*perPeriod + i)
			emit(NewTuple(key, int64(period*perPeriod+i)).WithNum("seq", seq))
		}
	})
	tp.AddOperator(&Operator{
		Name:      "A",
		KeyGroups: kgsA,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			st.Table("seen").Add(tu.Key, 1)
			emit(tu.NewTuple(tu.Key, tu.TS).WithNum("seq", tu.Num("seq")))
		},
	})
	tp.AddOperator(&Operator{
		Name:      "B",
		KeyGroups: kgsB,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			st.Table("seen").Add(tu.Key, 1)
			w.observe(tu.Key, tu.Num("seq"))
		},
	})
	tp.Connect("src", "A")
	tp.Connect("A", "B")
	return tp, w
}

// fifoWatcher records per-key sequence inversions at B. Every key has one
// sender, the generator, so every key must stay monotone, whether
// its groups moved or not; inversions are recorded on the shard goroutines
// and reported at the end of the run.
type fifoWatcher struct {
	mu       sync.Mutex
	lastSeq  map[string]float64
	inverted map[string]bool
}

func (w *fifoWatcher) observe(k string, s float64) {
	k = strings.Clone(k) // an input's key dies with the callback
	w.mu.Lock()
	if s <= w.lastSeq[k] {
		w.inverted[k] = true
	} else {
		w.lastSeq[k] = s
	}
	w.mu.Unlock()
}

// TestParallelGenExactnessUnderMoves: for every shard count, a run with
// staged migrations in every period from the third on and a
// drained-and-terminated node must deliver exact per-key totals, exact
// TuplesIn / TuplesOut, the cross-node byte-accounting identity, and per-key
// FIFO for every key, moved or not. Run under -race this also exercises the
// generation goroutine against the control goroutine.
func TestParallelGenExactnessUnderMoves(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, spn := range []int{1, 4} {
		t.Run(fmt.Sprintf("gen=1/shards=%d", spn), func(t *testing.T) {
			testParallelGenExactness(t, spn)
		})
	}
}

func testParallelGenExactness(t *testing.T, spn int) {
	const (
		keys      = 48
		perPeriod = 4800
		periods   = 6
		kgsA      = 24
		kgsB      = 24
		nodes     = 4
	)
	tp, watcher := partCountTopology(keys, perPeriod, kgsA, kgsB)
	e, err := New(tp, Config{Nodes: nodes, ShardsPerNode: spn}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	bMoves := 0
	for p := 1; p <= periods; p++ {
		if p == 3 {
			// Scale-in plus staged rotation at one boundary: node 3 drains
			// entirely onto the survivors, and every third A group migrates
			// one node over.
			e.MarkForRemoval([]int{3})
			alloc := e.Allocation()
			for gid, n := range alloc {
				if n == 3 {
					alloc[gid] = gid % 3
				}
			}
			for kg := 0; kg < kgsA; kg += 3 {
				gid := e.topo.GID(0, kg)
				alloc[gid] = (alloc[gid] + 1) % 3
			}
			if err := e.ApplyPlan(alloc); err != nil {
				t.Fatal(err)
			}
		}
		if p == 4 {
			if err := e.TerminateNode(3); err != nil {
				t.Fatalf("terminate after drain: %v", err)
			}
		}
		if p >= 4 {
			// One staged move per period, rotating B groups among the three
			// surviving nodes (node 3 is gone, so it is never a target).
			alloc := e.Allocation()
			gid := e.topo.GID(1, (p*5)%kgsB)
			alloc[gid] = (alloc[gid] + 1) % 3
			if err := e.ApplyPlan(alloc); err != nil {
				t.Fatal(err)
			}
			bMoves++
		}
		ps, err := e.RunPeriod()
		if err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		if p >= 4 && ps.Migrations != 1 {
			t.Fatalf("period %d: %d migrations, want the one staged B move", p, ps.Migrations)
		}
		if ps.BytesCrossNodeIn != ps.BytesCrossNode+ps.SrcBytesCrossNode {
			t.Fatalf("period %d: BytesCrossNodeIn = %d, want BytesCrossNode %d + SrcBytesCrossNode %d",
				p, ps.BytesCrossNodeIn, ps.BytesCrossNode, ps.SrcBytesCrossNode)
		}
		if ps.TuplesIn != 2*perPeriod {
			t.Fatalf("period %d: TuplesIn = %v, want %d (lost or duplicated deliveries)", p, ps.TuplesIn, 2*perPeriod)
		}
		if ps.TuplesOut != perPeriod {
			t.Fatalf("period %d: TuplesOut = %v, want %d", p, ps.TuplesOut, perPeriod)
		}
	}
	if bMoves == 0 {
		t.Fatal("no B group moved; the migration path went untested")
	}

	// Exact per-key totals, reconstructed from the resident shard states.
	want := float64(periods * perPeriod / keys)
	gotA := map[string]float64{}
	gotB := map[string]float64{}
	for i, n := range e.nodes {
		if e.removed[i] {
			continue
		}
		for gid, st := range n.allStates() {
			op, _ := e.topo.OpOf(gid)
			dst := gotA
			if e.topo.ops[op].Name == "B" {
				dst = gotB
			}
			for k, v := range st.Table("seen").All() {
				dst[k] += v
			}
		}
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key%02d", i)
		if gotA[k] != want {
			t.Errorf("A count[%s] = %v, want %v", k, gotA[k], want)
		}
		if gotB[k] != want {
			t.Errorf("B count[%s] = %v, want %v", k, gotB[k], want)
		}
	}

	// FIFO: no key may ever have been delivered out of order.
	for k := range watcher.inverted {
		t.Errorf("key %s delivered out of order (A group %d, B group %d)", k,
			e.topo.GID(0, int(codec.Hash(k)%kgsA)), e.topo.GID(1, int(codec.Hash(k)%kgsB)))
	}
}
