package core

import (
	"context"
	"testing"
	"time"
)

// ckptSnapshot: node 0 holds two equally heavy groups with equally large
// states; the only difference is that group 0 is checkpoint-resident with a
// small delta. Under a migration-cost budget that affords the delta but not
// a full state, rebalancing is only possible by moving group 0.
func ckptSnapshot() *Snapshot {
	return &Snapshot{
		NumNodes: 2,
		Ops: []OpStat{
			{Name: "op", Groups: []int{0, 1, 2, 3}},
		},
		Groups: []GroupStat{
			{Op: 0, Node: 0, Load: 40, StateSize: 10000, HasCkpt: true, CkptDelta: 200},
			{Op: 0, Node: 0, Load: 40, StateSize: 10000},
			{Op: 0, Node: 1, Load: 10, StateSize: 100},
			{Op: 0, Node: 1, Load: 10, StateSize: 100},
		},
		MaxMigrCost: 500,
	}
}

// TestMigCostUsesCheckpointDelta: the problem layer prices checkpoint-
// resident groups at delta cost (capped by the full state size), so every
// solver that consumes Snapshot.Problem — MILP, the anytime solver, ALBIC —
// sees checkpoint-assisted moves as cheap.
func TestMigCostUsesCheckpointDelta(t *testing.T) {
	s := ckptSnapshot()
	p := s.Problem()
	if got := p.Items[0].MigCost; got != 200 {
		t.Fatalf("checkpointed group priced at %v, want delta 200", got)
	}
	if got := p.Items[1].MigCost; got != 10000 {
		t.Fatalf("cold group priced at %v, want full 10000", got)
	}
	// A delta larger than the state never costs more than a full transfer
	// (the engine degrades to full-state migration in that case).
	s.Groups[0].CkptDelta = 50000
	if got := s.Problem().Items[0].MigCost; got != 10000 {
		t.Fatalf("oversized delta priced at %v, want capped 10000", got)
	}
}

// TestPlannerPrefersCheckpointResidentMoves: under a tight MaxMigrCost
// budget the MILP and ALBIC move the checkpoint-resident heavy group — the
// cold twin is unaffordable — and the plan stays within budget. The snapshot
// carries no communication (Comm nil).
func TestPlannerPrefersCheckpointResidentMoves(t *testing.T) {
	for _, b := range []Balancer{
		&MILPBalancer{TimeLimit: 50 * time.Millisecond},
		&ALBIC{TimeLimit: 50 * time.Millisecond, Seed: 1},
	} {
		s := ckptSnapshot()
		plan, err := b.Plan(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if plan.GroupNode[0] != 1 {
			t.Errorf("%s: checkpoint-resident group stayed on node %d, want moved to 1", b.Name(), plan.GroupNode[0])
		}
		if plan.GroupNode[1] != 0 {
			t.Errorf("%s: cold group moved to node %d despite unaffordable cost", b.Name(), plan.GroupNode[1])
		}
		if plan.Eval != nil && plan.Eval.MigrCost > s.MaxMigrCost {
			t.Errorf("%s: plan cost %v exceeds budget %v", b.Name(), plan.Eval.MigrCost, s.MaxMigrCost)
		}
	}
}

// TestHasCkptSurvivesClone guards the planner pipeline: snapshot cloning
// (pipelined mode hands clones around) must not drop residency.
func TestHasCkptSurvivesClone(t *testing.T) {
	s := ckptSnapshot()
	c := s.Clone()
	if !c.Groups[0].HasCkpt || c.Groups[0].CkptDelta != 200 {
		t.Fatalf("clone lost checkpoint residency: %+v", c.Groups[0])
	}
}
