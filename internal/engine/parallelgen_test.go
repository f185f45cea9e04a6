package engine

// Property tests for parallel source generation (Config.GenWorkers > 1):
// the partitioned generators must reproduce the serial path's tuple
// multiset exactly — under sharding, staged migrations, mid-period hot
// moves and a scale-in — and the only statistic allowed to move with the
// generator count is the frame-dictionary amortization of the source
// bytes, by under 1%.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
)

// partCountTopology builds src → A → B where src is a partitionable
// generator emitting perPeriod tuples over `keys` round-robin keys, each
// tagged with a strictly increasing per-key sequence number. Both
// operators count per-key arrivals in state; B additionally feeds the
// returned FIFO watcher.
func partCountTopology(keys, perPeriod, kgsA, kgsB int) (*Topology, *fifoWatcher) {
	w := &fifoWatcher{lastSeq: map[string]float64{}, inverted: map[string]bool{}}
	tp := NewTopology()
	tp.AddSourceParts("src", func(period, part, parts int, emit Emit) {
		for i := 0; i < perPeriod; i++ {
			if i%parts != part {
				continue
			}
			// key = i%keys and part = i%parts with parts | keys means every
			// key's tuples come from exactly one generator — the per-sender
			// FIFO invariant covers each key individually.
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
// sender (see partCountTopology), so every key must stay monotone, whether
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

// TestParallelGenExactnessUnderMoves is the parallel-generation property
// test: for every generator count × shard count, a run with staged
// migrations, mid-period hot moves and a drained-and-terminated node must
// deliver exact per-key totals, generator-count-invariant TuplesIn /
// TuplesOut, the cross-node byte-accounting identity, and per-key FIFO for
// every key, moved or not. Run under -race this also exercises the
// generator rendezvous and the sub-period safe-point protocol.
func TestParallelGenExactnessUnderMoves(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, gen := range []int{1, 2, 4} {
		for _, spn := range []int{1, 4} {
			t.Run(fmt.Sprintf("gen=%d/shards=%d", gen, spn), func(t *testing.T) {
				testParallelGenExactness(t, gen, spn)
			})
		}
	}
}

func testParallelGenExactness(t *testing.T, gen, spn int) {
	const (
		keys      = 48 // divisible by every gen in {1,2,4}
		perPeriod = 4800
		periods   = 6
		kgsA      = 24
		kgsB      = 24
		nodes     = 4
	)
	tp, watcher := partCountTopology(keys, perPeriod, kgsA, kgsB)
	e, err := New(tp, Config{Nodes: nodes, ShardsPerNode: spn, SubPeriods: 4, GenWorkers: gen}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	e.SetSubObserver(func(snap *core.Snapshot, period, sub int) []core.Move {
		if period < 4 || sub != 2 {
			return nil
		}
		// One hot move per eligible period, rotating B groups among the
		// three surviving nodes (node 3 is draining, so it is never a
		// target). These fire mid-period, while the generators are parked
		// at a sub-period safe point.
		gid := e.topo.GID(1, (period*5)%kgsB)
		from := snap.Groups[gid].Node
		to := (from + 1) % 3
		if to == from {
			to = (to + 1) % 3
		}
		return []core.Move{{Group: gid, From: from, To: to}}
	})

	totalHot := 0
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
		ps, err := e.RunPeriod()
		if err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		totalHot += ps.HotMoves
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
	if totalHot == 0 {
		t.Fatal("no hot moves executed; the parallel-generation safe-point path went untested")
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
			if e.topo.OpName(op) == "B" {
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

// TestParallelGenEquivalence: per-period tuple counts, the communication
// matrix and the final per-key state totals must be identical whatever
// GenWorkers is — the generator count is an execution detail, not a
// semantic knob.
func TestParallelGenEquivalence(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const (
		keys      = 36
		perPeriod = 3000
		periods   = 3
	)
	type periodObs struct {
		in, out int64
		comm    map[core.Pair]float64
	}
	run := func(gen int) ([]periodObs, map[string]float64) {
		tp, _ := partCountTopology(keys, perPeriod, 12, 12)
		e, err := New(tp, Config{Nodes: 3, ShardsPerNode: 2, SubPeriods: 4, GenWorkers: gen}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var obs []periodObs
		for p := 0; p < periods; p++ {
			ps, err := e.RunPeriod()
			if err != nil {
				t.Fatal(err)
			}
			obs = append(obs, periodObs{in: ps.TuplesIn, out: ps.TuplesOut, comm: ps.Comm.ToMap()})
		}
		got := map[string]float64{}
		for _, n := range e.nodes {
			for _, st := range n.allStates() {
				for k, v := range st.Table("seen").All() {
					got[k] += v
				}
			}
		}
		return obs, got
	}
	base, baseKeys := run(1)
	for _, gen := range []int{2, 4} {
		obs, gotKeys := run(gen)
		for p := range base {
			if obs[p].in != base[p].in || obs[p].out != base[p].out {
				t.Errorf("gen=%d period %d: tuples (%d,%d), want (%d,%d)",
					gen, p, obs[p].in, obs[p].out, base[p].in, base[p].out)
			}
			for pair, v := range base[p].comm {
				if obs[p].comm[pair] != v {
					t.Errorf("gen=%d period %d: comm[%v] = %v, want %v", gen, p, pair, obs[p].comm[pair], v)
				}
			}
			if len(obs[p].comm) != len(base[p].comm) {
				t.Errorf("gen=%d period %d: %d comm pairs, want %d", gen, p, len(obs[p].comm), len(base[p].comm))
			}
		}
		for k, v := range baseKeys {
			if gotKeys[k] != v {
				t.Errorf("gen=%d: state[%s] = %v, want %v", gen, k, gotKeys[k], v)
			}
		}
	}
}

// TestParallelGenDictionaryShiftBounded: splitting a period's batch across
// generators re-partitions tuples over frames, so the per-frame string
// dictionaries amortize slightly differently — that shift in source wire
// bytes must stay under 1%, and every count must be exact (the
// GenWorkers-side mirror of TestShardingDictionaryShiftBounded).
func TestParallelGenDictionaryShiftBounded(t *testing.T) {
	run := func(gen int) *PeriodStats {
		tp := NewTopology()
		tp.AddSourceParts("src", func(period, part, parts int, emit Emit) {
			for i := 0; i < 2000; i++ {
				if i%parts != part {
					continue
				}
				emit(NewTuple(fmt.Sprintf("k%d", i%37), int64(period*2000+i)).
					WithStr("carrier", "CC").WithNum("delay", float64(i%60)))
			}
		})
		tp.AddOperator(&Operator{
			Name:      "agg",
			KeyGroups: 12,
			Proc: func(tu *Tuple, st *State, emit Emit) {
				st.Table("sum").Add(tu.Key, tu.Num("delay"))
			},
		})
		tp.Connect("src", "agg")
		e, err := New(tp, Config{Nodes: 3, GenWorkers: gen}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var last *PeriodStats
		for p := 0; p < 2; p++ {
			ps, err := e.RunPeriod()
			if err != nil {
				t.Fatal(err)
			}
			last = ps
		}
		return last
	}
	base := run(1)
	parallel := run(4)
	if base.TuplesIn != parallel.TuplesIn || base.TuplesOut != parallel.TuplesOut {
		t.Errorf("tuple counts differ: gen=1 (%v,%v) vs gen=4 (%v,%v)",
			base.TuplesIn, base.TuplesOut, parallel.TuplesIn, parallel.TuplesOut)
	}
	for _, ps := range []*PeriodStats{base, parallel} {
		if ps.BytesCrossNodeIn != ps.BytesCrossNode+ps.SrcBytesCrossNode {
			t.Errorf("accounting identity broken: in=%d cross=%d src=%d",
				ps.BytesCrossNodeIn, ps.BytesCrossNode, ps.SrcBytesCrossNode)
		}
	}
	baseComm, parComm := base.Comm.ToMap(), parallel.Comm.ToMap()
	for p, v := range baseComm {
		if parComm[p] != v {
			t.Errorf("comm[%v] = %v under gen=4, want %v", p, parComm[p], v)
		}
	}
	delta := parallel.SrcBytesCrossNode - base.SrcBytesCrossNode
	if delta < 0 {
		delta = -delta
	}
	if float64(delta) > 0.01*float64(base.SrcBytesCrossNode) {
		t.Errorf("dictionary shift %d bytes exceeds 1%% of %d",
			delta, base.SrcBytesCrossNode)
	}
	t.Logf("srcBytes gen=1 %d, gen=4 %d (shift %d, %.3f%%)",
		base.SrcBytesCrossNode, parallel.SrcBytesCrossNode, delta,
		100*float64(delta)/float64(base.SrcBytesCrossNode))
}
