package engine

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
)

// TestShardedExactnessUnderMoves is the multicore property test of the
// sharded data path: with ShardsPerNode >= 2 and GOMAXPROCS > 1, a two-stage
// pipeline under staged migrations of both operators' groups must deliver
// every tuple exactly once, keep the wire-byte
// identity BytesCrossNodeIn == BytesCrossNode + SrcBytesCrossNode every
// period (intra-node cross-shard frames count nothing), and deliver every
// key's tuples in order — the paper's guarantee holds for a key whose groups
// migrate as it does for one whose groups stay. Run under -race.
func TestShardedExactnessUnderMoves(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const (
		keys      = 48
		perPeriod = 4800
		periods   = 6
		kgsA      = 24
		kgsB      = 24
		nodes     = 4
	)

	// FIFO watcher at B: every key must stay monotone, whether its A- and
	// B-groups moved or not — a move happens at a period boundary with
	// nothing in flight. Inversions are recorded on the shard goroutines and
	// reported at the end.
	var fifoMu sync.Mutex
	lastSeq := map[string]float64{}
	inverted := map[string]bool{}

	tp := NewTopology()
	seq := 0
	tp.AddSource("src", func(period int, emit Emit) {
		for i := 0; i < perPeriod; i++ {
			seq++
			key := fmt.Sprintf("key%02d", i%keys)
			emit(NewTuple(key, int64(seq)).WithNum("seq", float64(seq)))
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
			k, s := strings.Clone(tu.Key), tu.Num("seq")
			fifoMu.Lock()
			if s <= lastSeq[k] {
				inverted[k] = true
			} else {
				lastSeq[k] = s
			}
			fifoMu.Unlock()
		},
	})
	tp.Connect("src", "A")
	tp.Connect("A", "B")

	e, err := New(tp, Config{Nodes: nodes, ShardsPerNode: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	bMoves := 0
	for p := 1; p <= periods; p++ {
		if p == 3 {
			// Staged rotation: every third A group migrates one node over at
			// this boundary (direct state migration under sharding).
			alloc := e.Allocation()
			for kg := 0; kg < kgsA; kg += 3 {
				gid := e.topo.GID(0, kg)
				alloc[gid] = (alloc[gid] + 1) % nodes
			}
			if err := e.ApplyPlan(alloc); err != nil {
				t.Fatal(err)
			}
		}
		if p >= 4 {
			// One staged move per period: rotate a different B group to the
			// next node.
			alloc := e.Allocation()
			gid := e.topo.GID(1, (p*5)%kgsB)
			alloc[gid] = (alloc[gid] + 1) % nodes
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
			t.Fatalf("period %d: BytesCrossNodeIn = %d, want BytesCrossNode %d + SrcBytesCrossNode %d (local shard frames leaked into wire accounting)",
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
		t.Fatal("no B group moved; the sharded migration path went untested")
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
	for k := range inverted {
		t.Errorf("key %s delivered out of order (A group %d, B group %d)", k,
			e.topo.GID(0, int(codec.Hash(k)%kgsA)), e.topo.GID(1, int(codec.Hash(k)%kgsB)))
	}
}

// TestShardingInvariantToCostModel: the modeled costs — wire bytes,
// serialization units, communication matrix — must be identical whatever
// ShardsPerNode is, because intra-node shard hops are free in the model.
// Two inputs: a quiet period, and a low-volume period that begins with a
// staged move — a move happens with nothing in flight, so no tuple is
// forwarded and which shard had staged what when the period was armed leaves
// no trace in the statistics.
//
// The byte-for-byte half uses jobs whose cross-shard-boundary tuples carry
// no Proc-path named fields; TestShardingDictionaryShiftBounded pins the one
// quantity that legitimately moves with S when tuples do carry named fields.
func TestShardingInvariantToCostModel(t *testing.T) {
	quiet := func(spn int) *PeriodStats {
		col := newCollector()
		tp := wordCountTopology([]string{"a", "b", "c", "d", "e"}, 2000, 12, col)
		e, err := New(tp, Config{Nodes: 3, ShardsPerNode: spn}, nil)
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
	// src → A → B, no named fields anywhere. Period 2 emits less than half of
	// period 1's volume, most of A's output sits in outboxes below the flush
	// threshold until the barrier wave, and a B group moves one node over at
	// its start.
	stagedMove := func(spn int) *PeriodStats {
		tp := NewTopology()
		tp.AddSource("src", func(period int, emit Emit) {
			n := 4000
			if period == 2 {
				n = 1500
			}
			for i := 0; i < n; i++ {
				emit(NewTuple(fmt.Sprintf("key%02d", i%48), int64(period*4000+i)))
			}
		})
		tp.AddOperator(&Operator{Name: "A", KeyGroups: 12, Proc: func(tu *Tuple, st *State, emit Emit) {
			emit(tu.NewTuple(tu.Key, tu.TS))
		}})
		tp.AddOperator(&Operator{Name: "B", KeyGroups: 12, Proc: func(tu *Tuple, st *State, emit Emit) {
			st.Table("seen").Add(tu.Key, 1)
		}})
		tp.Connect("src", "A")
		tp.Connect("A", "B")
		e, err := New(tp, Config{Nodes: 3, ShardsPerNode: spn}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var last *PeriodStats
		for p := 0; p < 2; p++ {
			if p == 1 {
				alloc := e.Allocation()
				gid := e.topo.GID(1, 5)
				alloc[gid] = (alloc[gid] + 1) % 3
				if err := e.ApplyPlan(alloc); err != nil {
					t.Fatal(err)
				}
			}
			ps, err := e.RunPeriod()
			if err != nil {
				t.Fatal(err)
			}
			last = ps
		}
		if last.Migrations != 1 {
			t.Fatalf("spn=%d: period 2 executed %d migrations, want 1", spn, last.Migrations)
		}
		return last
	}
	for _, in := range []struct {
		name string
		run  func(spn int) *PeriodStats
	}{
		{"quiet", quiet},
		{"staged move", stagedMove},
	} {
		base := in.run(1)
		for _, spn := range []int{1, 4} {
			got := in.run(spn)
			cfg := fmt.Sprintf("%s, spn=%d vs spn=1", in.name, spn)
			if base.BytesCrossNode != got.BytesCrossNode ||
				base.BytesCrossNodeIn != got.BytesCrossNodeIn ||
				base.SrcBytesCrossNode != got.SrcBytesCrossNode {
				t.Errorf("%s: wire bytes (%d,%d,%d), want (%d,%d,%d)", cfg,
					got.BytesCrossNode, got.BytesCrossNodeIn, got.SrcBytesCrossNode,
					base.BytesCrossNode, base.BytesCrossNodeIn, base.SrcBytesCrossNode)
			}
			if base.TuplesIn != got.TuplesIn || base.TuplesOut != got.TuplesOut {
				t.Errorf("%s: tuple counts (%v,%v), want (%v,%v)", cfg,
					got.TuplesIn, got.TuplesOut, base.TuplesIn, base.TuplesOut)
			}
			if !slices.Equal(base.NodeUnits, got.NodeUnits) || !slices.Equal(base.GroupUnits, got.GroupUnits) {
				t.Errorf("%s: units differ:\n node  %v\n want  %v\n group %v\n want  %v", cfg,
					got.NodeUnits, base.NodeUnits, got.GroupUnits, base.GroupUnits)
			}
			if base.Migrations != got.Migrations || base.MigrationLatency != got.MigrationLatency ||
				!slices.Equal(base.GroupNode, got.GroupNode) {
				t.Errorf("%s: migrations (%d, %v s, %v), want (%d, %v s, %v)", cfg,
					got.Migrations, got.MigrationLatency, got.GroupNode,
					base.Migrations, base.MigrationLatency, base.GroupNode)
			}
			baseComm, gotComm := commEdges(base.Comm), commEdges(got.Comm)
			for p, v := range baseComm {
				if gotComm[p] != v {
					t.Errorf("%s: comm[%v] = %v, want %v", cfg, p, gotComm[p], v)
				}
			}
			for p, v := range gotComm {
				if _, ok := baseComm[p]; !ok && v != 0 {
					t.Errorf("%s: comm[%v] = %v, absent in the base run", cfg, p, v)
				}
			}
		}
	}
}

// TestShardingDictionaryShiftBounded: with ShardsPerNode = S a sender keeps
// one frame stream per destination *shard* instead of per destination node,
// and a v2 frame is self-contained — its field-name dictionary resets at
// every frame boundary. More parallel streams re-define each name in more
// frames, so when tuples carry named fields the absolute wire bytes are not
// bit-identical across S: the per-frame dictionary amortizes over smaller
// frames (the same class of absolute-byte shift as v1 → v2, and every
// policy sees the same encoding). Everything tuple-granular must still be
// exactly invariant — tuple counts, the communication matrix, the
// sender/receiver accounting identity — and the byte shift must stay within
// the dictionary's amortization slack, pinned here at < 1 %.
func TestShardingDictionaryShiftBounded(t *testing.T) {
	run := func(spn int) *PeriodStats {
		tp := NewTopology()
		tp.AddSource("src", func(period int, emit Emit) {
			for i := 0; i < 2000; i++ {
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
		e, err := New(tp, Config{Nodes: 3, ShardsPerNode: spn}, nil)
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
	sharded := run(4)
	if base.TuplesIn != sharded.TuplesIn || base.TuplesOut != sharded.TuplesOut {
		t.Errorf("tuple counts differ: spn=1 (%v,%v) vs spn=4 (%v,%v)",
			base.TuplesIn, base.TuplesOut, sharded.TuplesIn, sharded.TuplesOut)
	}
	for _, ps := range []*PeriodStats{base, sharded} {
		if ps.BytesCrossNodeIn != ps.BytesCrossNode+ps.SrcBytesCrossNode {
			t.Errorf("accounting identity broken: in=%d cross=%d src=%d",
				ps.BytesCrossNodeIn, ps.BytesCrossNode, ps.SrcBytesCrossNode)
		}
	}
	baseComm, shardedComm := commEdges(base.Comm), commEdges(sharded.Comm)
	for p, v := range baseComm {
		if shardedComm[p] != v {
			t.Errorf("comm[%v] = %v under spn=4, want %v", p, shardedComm[p], v)
		}
	}
	delta := sharded.SrcBytesCrossNode - base.SrcBytesCrossNode
	if delta < 0 {
		delta = -delta
	}
	if float64(delta) > 0.01*float64(base.SrcBytesCrossNode) {
		t.Errorf("dictionary shift %d bytes exceeds 1%% of %d",
			delta, base.SrcBytesCrossNode)
	}
	t.Logf("srcBytes spn=1 %d, spn=4 %d (shift %d, %.3f%%)",
		base.SrcBytesCrossNode, sharded.SrcBytesCrossNode, delta,
		100*float64(delta)/float64(base.SrcBytesCrossNode))
}

// TestArmFailureSurfacesErrorInsteadOfWedging: a node that dies before the
// arm phase (its mailboxes are closed but the control plane was not told)
// must fail the period with an error — the old ack loop waited for an ack
// that could never come and wedged the control goroutine forever.
func TestArmFailureSurfacesErrorInsteadOfWedging(t *testing.T) {
	col := newCollector()
	tp := wordCountTopology([]string{"a", "b", "c"}, 300, 6, col)
	e, err := New(tp, Config{Nodes: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}

	e.nodes[1].closeMailboxes() // simulated crash

	done := make(chan error, 1)
	go func() {
		_, err := e.RunPeriod()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunPeriod succeeded with a dead node")
		}
		if !strings.Contains(err.Error(), "arm") {
			t.Fatalf("RunPeriod error = %v, want an arm-phase failure", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunPeriod wedged on a dead node (arm-phase ack loop never exited)")
	}
}

// TestAddNodesTakesWeights: weights are fixed when the cluster forms, and
// scale-out appends nodes of weight 1 after them, with contiguous ids and a
// capacity vector the planner's snapshot shows.
func TestAddNodesTakesWeights(t *testing.T) {
	col := newCollector()
	tp := wordCountTopology([]string{"a", "b"}, 200, 4, col)
	e, err := New(tp, Config{Nodes: 2, CapacityWeights: []float64{2.5, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ids, err := e.AddNodes(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("AddNodes ids = %v, want [2 3]", ids)
	}
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Capacity == nil {
		t.Fatal("snapshot reports no capacity vector for a heterogeneous cluster")
	}
	wantCap := []float64{2.5, 1, 1, 1}
	for i, w := range wantCap {
		if snap.Capacity[i] != w {
			t.Fatalf("snapshot capacity = %v, want %v", snap.Capacity, wantCap)
		}
	}
}
