package engine

import (
	"fmt"
	"testing"
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
// large-state move with a warm checkpoint pre-copies the checkpoint across
// multiple period boundaries (the move deferring meanwhile) and then
// synchronously transfers only the delta accumulated since the checkpoint —
// with exact tuple counts and a latency model charged for the delta alone.
func TestCheckpointAssistedMigration(t *testing.T) {
	const build, trickle = 2000, 50
	topo := buildGrowTopology(build, trickle, 2, 2)
	e, err := New(topo, Config{Nodes: 2, PrecopyChunkBytes: 12 << 10}, nil)
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

	// Build a large state, then checkpoint it.
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
	ckptSize := len(ckptBytes)
	if ckptSize <= 2*e.cfg.PrecopyChunkBytes {
		t.Fatalf("checkpoint of group 0 is %d bytes; too small to span >= 2 boundaries at chunk %d",
			ckptSize, e.cfg.PrecopyChunkBytes)
	}
	fullSize := 0
	for _, n := range e.nodes {
		if st := n.stateOf(0); st != nil {
			fullSize = st.Size()
		}
	}
	if fullSize == 0 {
		t.Fatal("group 0 has no live state")
	}

	// Stage the move of the big group 0 (round-robin start: node 0 -> 1).
	plan := e.Allocation()
	if plan[0] != 0 {
		t.Fatalf("group 0 starts on node %d, want 0", plan[0])
	}
	plan[0] = 1
	if err := e.ApplyPlan(plan); err != nil {
		t.Fatal(err)
	}

	// The pre-copy must span >= 2 period boundaries before the move
	// executes with a delta-only synchronous transfer.
	deferredPeriods := 0
	var precopyTotal int64
	var moved *PeriodStats
	for p := 0; p < 10 && moved == nil; p++ {
		ps := runPeriod()
		precopyTotal += ps.PrecopyBytes
		switch {
		case ps.DeferredMoves > 0:
			deferredPeriods++
			if ps.Migrations != 0 {
				t.Fatalf("period %d both deferred and migrated: %+v", ps.Period, ps)
			}
			if ps.GroupNode[0] != 0 {
				t.Fatalf("period %d ran group 0 on node %d while deferred", ps.Period, ps.GroupNode[0])
			}
		case ps.Migrations > 0:
			moved = ps
		}
	}
	if moved == nil {
		t.Fatal("move never executed")
	}
	if deferredPeriods < 2 {
		t.Fatalf("pre-copy spanned %d period boundaries, want >= 2", deferredPeriods)
	}
	if precopyTotal != int64(ckptSize) {
		t.Fatalf("pre-copied %d bytes, checkpoint is %d", precopyTotal, ckptSize)
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
	// exactly once (no loss, no duplicate application across pre-copy,
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

// TestAbandonedPrecopyDiscardsDestinationBuffer: when the plan changes
// under an in-flight pre-copy, the destination's partial buffer is dropped
// (no unbounded accumulation across plan churn), and the planner's
// residency signal is fresh immediately after a checkpoint.
func TestAbandonedPrecopyDiscardsDestinationBuffer(t *testing.T) {
	const build, trickle = 2000, 50
	topo := buildGrowTopology(build, trickle, 2, 2)
	e, err := New(topo, Config{Nodes: 2, PrecopyChunkBytes: 8 << 10}, nil)
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

	// Residency signal is fresh at the checkpoint boundary: a snapshot
	// taken right now (before any further period) prices group 0 at an
	// empty delta, not at "no checkpoint".
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

	// Start a pre-copy of group 0 toward node 1, then abandon the move.
	plan := e.Allocation()
	plan[0] = 1
	if err := e.ApplyPlan(plan); err != nil {
		t.Fatal(err)
	}
	ps, err := e.RunPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if ps.DeferredMoves == 0 || ps.PrecopyBytes == 0 {
		t.Fatalf("expected an in-flight pre-copy: %+v", ps)
	}
	plan[0] = 0 // retract the move
	if err := e.ApplyPlan(plan); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	if len(e.precopy) != 0 {
		t.Fatalf("%d pre-copy sessions survived the retracted plan", len(e.precopy))
	}
	// One more period so node 1 surely processed the discard message.
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	if n := e.nodes[1].precopiedCount(); n != 0 {
		t.Fatalf("destination still buffers %d abandoned pre-copies", n)
	}
}

// TestColdMoveStillDirect: groups without a checkpoint keep the classic
// full-state direct migration, with no pre-copy traffic.
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

// TestFailureDuringPrecopy kills nodes in the middle of a multi-period
// pre-copy and asserts the affected groups recover from their checkpoint on
// a surviving node — and that the barrier protocol never wedges.
func TestFailureDuringPrecopy(t *testing.T) {
	const build, trickle = 2000, 40
	topo := buildGrowTopology(build, trickle, 2, 3)
	e, err := New(topo, Config{Nodes: 3, PrecopyChunkBytes: 8 << 10}, nil)
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

	// Stage group 0 (on node 0) toward node 1 and enter pre-copy.
	plan := e.Allocation()
	plan[0] = 1
	if err := e.ApplyPlan(plan); err != nil {
		t.Fatal(err)
	}
	ps, err := e.RunPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if ps.DeferredMoves == 0 {
		t.Fatalf("expected the move to defer behind pre-copy: %+v", ps)
	}

	// Kill the pre-copy SOURCE (node 0, the group's physical host) mid
	// pre-copy: the group's live state is gone; it must come back from the
	// checkpoint on a survivor.
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
	ps, err = e.RunPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if got := totalTallied(e); got != before+trickle {
		t.Fatalf("post-recovery period tallied %v, want %v", got, before+trickle)
	}

	// Now stage a move toward node 2 and kill the DESTINATION mid
	// pre-copy: the move is cancelled, the live (newer) state stays put.
	e.TakeCheckpoint()
	plan = e.Allocation()
	src := plan[0]
	plan[0] = 2
	if err := e.ApplyPlan(plan); err != nil {
		t.Fatal(err)
	}
	ps, err = e.RunPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if ps.DeferredMoves == 0 {
		t.Fatalf("expected the second move to defer behind pre-copy: %+v", ps)
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
