package engine

import (
	"fmt"
	"testing"

	"repro/internal/statestore"
)

// buildGrowTopology emits `build` unique-cell tuples per period while
// period <= buildPeriods, then `trickle` per period: large state is built
// up front, later periods only accumulate a small delta on top of it —
// the regime checkpoint-assisted migration exploits.
func buildGrowTopology(build, trickle, buildPeriods, kgs int) *Topology {
	tp := NewTopology()
	tp.AddSource("src", func(period int, emit Emit) {
		n := build
		if period > buildPeriods {
			n = trickle
		}
		for i := 0; i < n; i++ {
			emit(&Tuple{Key: fmt.Sprintf("p%d-i%d", period, i), TS: int64(period*100000 + i)})
		}
	})
	tp.AddOperator(&Operator{
		Name:      "grow",
		KeyGroups: kgs,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			st.Add("total", 1)
			st.Table("seen").Set(tu.Key, 1)
		},
	})
	tp.Connect("src", "grow")
	return tp
}

// TestCheckpointAssistedMigration is the integrative-migration headline: a
// large-state move with a warm checkpoint runs at the next period boundary,
// ships the checkpoint as its base and synchronously transfers only the delta
// accumulated since — with exact tuple counts and a latency model charged for
// the delta alone.
func TestCheckpointAssistedMigration(t *testing.T) {
	const build, trickle = 2000, 50
	topo := buildGrowTopology(build, trickle, 2, 2)
	e, err := New(topo, Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	emitted := 0
	runPeriod := func() *PeriodStats {
		t.Helper()
		ps, err := e.RunPeriod()
		if err != nil {
			t.Fatal(err)
		}
		if e.period <= 2 {
			emitted += build
		} else {
			emitted += trickle
		}
		return ps
	}

	// Build a large state, checkpoint it, then let a small delta accumulate.
	runPeriod()
	runPeriod()
	cs := e.TakeCheckpoint()
	if cs.NewBytes == 0 {
		t.Fatal("checkpoint stored nothing")
	}
	ckptBytes, _, ok := e.CheckpointStore().EncodedState(0)
	if !ok {
		t.Fatal("group 0 missing from checkpoint store")
	}
	runPeriod()
	fullSize := 0
	for _, n := range e.nodes {
		if st := n.stateOf(0); st != nil {
			fullSize = st.Size()
		}
	}
	if fullSize == 0 {
		t.Fatal("group 0 has no live state")
	}

	// Stage the move of the big group 0 (round-robin start: node 0 -> 1). It
	// runs at the very next boundary, with a delta-only synchronous transfer.
	plan := e.Allocation()
	if plan[0] != 0 {
		t.Fatalf("group 0 starts on node %d, want 0", plan[0])
	}
	plan[0] = 1
	if err := e.ApplyPlan(plan); err != nil {
		t.Fatal(err)
	}
	moved := runPeriod()
	if moved.Migrations != 1 || moved.DeferredMoves != 0 {
		t.Fatalf("the staged move did not run at the next boundary: %+v", moved)
	}
	if moved.PrecopyBytes != int64(len(ckptBytes)) {
		t.Fatalf("shipped a %d-byte base, the checkpoint is %d", moved.PrecopyBytes, len(ckptBytes))
	}
	if moved.GroupNode[0] != 1 {
		t.Fatalf("executing period ran group 0 on node %d, want 1", moved.GroupNode[0])
	}
	if moved.MigratedDeltaBytes == 0 {
		t.Fatal("move did not use the delta path")
	}
	if moved.MigratedDeltaBytes >= int64(fullSize)/10 {
		t.Fatalf("delta transfer %d bytes is not << full state %d bytes", moved.MigratedDeltaBytes, fullSize)
	}
	// Latency is modeled from the synchronously-transferred delta only.
	wantLat := float64(moved.MigratedDeltaBytes) * migrSecondsPerByte
	if moved.MigrationLatency != wantLat {
		t.Fatalf("MigrationLatency = %v, want %v (delta bytes only)", moved.MigrationLatency, wantLat)
	}

	// Exactness: one more period, then every emitted tuple must be counted
	// exactly once (no loss, no duplicate application across the base, the
	// delta transfer and the barrier protocol).
	runPeriod()
	if got := totalTallied(e); got != float64(emitted) {
		t.Fatalf("tallied %v tuples, emitted %d", got, emitted)
	}
	// Every emitted key was unique: the union of the table cells must cover
	// them all, with group 0's share intact on the destination node.
	cells := 0
	for _, n := range e.nodes {
		for _, st := range n.allStates() {
			cells += st.Table("seen").Len()
		}
	}
	if cells != emitted {
		t.Fatalf("state holds %d cells, emitted %d unique keys", cells, emitted)
	}
	if st := e.nodes[1].stateOf(0); st == nil || st.Table("seen").Len() == 0 {
		t.Fatal("group 0 state not resident on destination node 1")
	}
}

// TestInProcessMoveHandsOver moves a group whole and another by delta between
// the shards of two nodes of one process: the destination adopts the very
// State the source held, and after the delta move the source's Tip at its
// version, whose change records still let the barrier size the next delta
// exactly. The source keeps nothing.
func TestInProcessMoveHandsOver(t *testing.T) {
	topo := buildGrowTopology(400, 20, 2, 2)
	e, err := New(topo, Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	run := func() *PeriodStats {
		t.Helper()
		ps, err := e.RunPeriod()
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	move := func(gid, to int) {
		t.Helper()
		plan := e.Allocation()
		plan[gid] = to
		if err := e.ApplyPlan(plan); err != nil {
			t.Fatal(err)
		}
	}
	// handOver runs the period that moves gid from node `from` to node `to`
	// and checks what each shard holds afterwards.
	handOver := func(gid, from, to int) (*PeriodStats, *State) {
		t.Helper()
		src, dst := e.shardAt(e.gsidFor(from, gid)), e.shardAt(e.gsidFor(to, gid))
		st := src.states[gid]
		if st == nil {
			t.Fatalf("group %d has no state on node %d", gid, from)
		}
		move(gid, to)
		ps := run()
		if ps.Migrations != 1 {
			t.Fatalf("group %d: %d migrations, want 1", gid, ps.Migrations)
		}
		if dst.states[gid] != st || src.states[gid] != nil {
			t.Fatalf("group %d: the destination holds %p, the source held %p (and holds %p)", gid, dst.states[gid], st, src.states[gid])
		}
		return ps, st
	}

	run() // group 0 on node 0, group 1 on node 1 (round robin)
	whole, _ := handOver(1, 1, 0)
	if whole.MigratedDeltaBytes != 0 || whole.MigrationLatency == 0 {
		t.Fatalf("a group without a tip moved by delta: %+v", whole)
	}
	if e.shardAt(e.gsidFor(0, 1)).tips[1] != nil {
		t.Fatal("a whole move arrived with a tip")
	}

	run()
	e.TakeCheckpoint()
	run()
	tip := e.shardAt(e.gsidFor(0, 0)).tips[0]
	if tip == nil {
		t.Fatal("group 0 has no tip after the checkpoint")
	}
	ver := tip.Version()
	delta, st := handOver(0, 0, 1)
	if delta.MigratedDeltaBytes == 0 {
		t.Fatalf("group 0 did not move by delta: %+v", delta)
	}
	dst := e.shardAt(e.gsidFor(1, 0))
	if dst.tips[0] != tip || tip.Version() != ver {
		t.Fatalf("group 0 arrived with tip %p at version %d, the source's was %p at %d", dst.tips[0], dst.tips[0].Version(), tip, ver)
	}
	// The state took more cells after the move: the barrier read them from
	// the change records the move kept, and must find what a walk of every
	// cell finds.
	ps := run()
	if want := statestore.NewTip(0, tip.State(), nil, statestore.Chain{}).Measure(0, st); ps.CkptDeltaBytes[0] != want {
		t.Fatalf("the barrier after the move measured a %d-byte delta, the walk of every cell %d", ps.CkptDeltaBytes[0], want)
	}
	if got, want := totalTallied(e), float64(2*400+4*20); got != want {
		t.Fatalf("tallied %v tuples, emitted %v", got, want)
	}
}

// TestResidencyFreshAfterCheckpoint: the planner's residency signal is fresh
// immediately after a checkpoint — a snapshot taken before any further period
// prices a group at an empty delta, not at "no checkpoint".
func TestResidencyFreshAfterCheckpoint(t *testing.T) {
	const build, trickle = 2000, 50
	topo := buildGrowTopology(build, trickle, 2, 2)
	e, err := New(topo, Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for p := 0; p < 2; p++ {
		if _, err := e.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	e.TakeCheckpoint()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Groups[0].HasCkpt {
		t.Fatal("snapshot right after checkpoint lacks residency")
	}
	if snap.Groups[0].CkptDelta >= snap.Groups[0].StateSize/10 {
		t.Fatalf("fresh checkpoint delta %v not small vs state %v", snap.Groups[0].CkptDelta, snap.Groups[0].StateSize)
	}
}

// TestColdMoveStillDirect: groups without a checkpoint keep the classic
// full-state direct migration, with no checkpoint base shipped.
func TestColdMoveStillDirect(t *testing.T) {
	topo := buildGrowTopology(300, 50, 1, 2)
	e, err := New(topo, Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	plan := e.Allocation()
	plan[0] = 1
	if err := e.ApplyPlan(plan); err != nil {
		t.Fatal(err)
	}
	ps, err := e.RunPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if ps.Migrations != 1 || ps.DeferredMoves != 0 || ps.PrecopyBytes != 0 || ps.MigratedDeltaBytes != 0 {
		t.Fatalf("cold move stats: %+v", ps)
	}
	if ps.MigrationLatency == 0 {
		t.Fatal("full-state migration must charge latency")
	}
}

// TestFailureBeforeMove kills nodes after a move of a checkpointed group is
// staged and before the period that would run it: the source, whose group
// must recover from its checkpoint on a surviving node, and then the
// destination, whose move is cancelled — and the barrier protocol never
// wedges.
func TestFailureBeforeMove(t *testing.T) {
	const build, trickle = 2000, 40
	topo := buildGrowTopology(build, trickle, 2, 3)
	e, err := New(topo, Config{Nodes: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for p := 0; p < 2; p++ {
		if _, err := e.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	e.TakeCheckpoint()
	ckptState, _, ok := e.CheckpointStore().Materialize(0)
	if !ok {
		t.Fatal("group 0 not checkpointed")
	}

	// Stage group 0 (on node 0) toward node 1, then kill the SOURCE (node 0,
	// the group's physical host) before the move's period: the group's live
	// state is gone; it must come back from the checkpoint on a survivor.
	plan := e.Allocation()
	plan[0] = 1
	if err := e.ApplyPlan(plan); err != nil {
		t.Fatal(err)
	}
	if err := e.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(nil); err != nil {
		t.Fatal(err)
	}
	alloc := e.Allocation()
	if alloc[0] == 0 || e.removed[alloc[0]] {
		t.Fatalf("group 0 recovered onto node %d", alloc[0])
	}
	var recovered *State
	for i, n := range e.nodes {
		if !e.removed[i] && n.stateOf(0) != nil {
			recovered = n.stateOf(0)
		}
	}
	if recovered == nil {
		t.Fatal("group 0 has no live state after recovery")
	}
	// Recovery restores exactly the checkpoint (post-checkpoint progress is
	// lost; nothing applied twice).
	if d := recovered.Table("seen").Len() - ckptState.Table("seen").Len(); d != 0 {
		t.Fatalf("recovered state differs from checkpoint by %d cells", d)
	}

	// The engine must keep completing periods — no wedged barrier.
	before := totalTallied(e)
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	if got := totalTallied(e); got != before+trickle {
		t.Fatalf("post-recovery period tallied %v, want %v", got, before+trickle)
	}

	// Now stage a move toward node 2 and kill the DESTINATION before the
	// move's period: the move is cancelled, the live (newer) state stays put.
	e.TakeCheckpoint()
	plan = e.Allocation()
	src := plan[0]
	plan[0] = 2
	if err := e.ApplyPlan(plan); err != nil {
		t.Fatal(err)
	}
	if err := e.FailNode(2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(nil); err != nil {
		t.Fatal(err)
	}
	if got := e.Allocation()[0]; got != src {
		t.Fatalf("cancelled move left group 0 targeting node %d, want %d", got, src)
	}
	before = totalTallied(e)
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	if got := totalTallied(e); got != before+trickle {
		t.Fatalf("final period tallied %v, want %v", got, before+trickle)
	}
}
