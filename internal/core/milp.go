package core

import (
	"context"
	"time"

	"repro/internal/assign"
)

// MILPBalancer solves the paper's integrated load-balancing MILP (Section
// 4.3.1) each adaptation period, treating every key group as an independent
// migration unit. It is the right choice for topologies where collocation
// has little effect (high-degree partial/full partitioning patterns).
type MILPBalancer struct {
	// TimeLimit is the solver budget per invocation (the paper's CPLEX
	// solve-time knob). Default 50ms.
	TimeLimit time.Duration
	// Seed drives the anytime solver's randomized phase.
	Seed int64

	// Incremental enables dirty-region planning (see ALBIC.Incremental):
	// only groups with material load/placement changes since the previous
	// invocation become solver items, the rest is frozen as fixed background
	// load. Falls back to a full solve on the first invocation, on topology
	// changes, and when the region covers every group.
	Incremental bool

	tracker dirtyTracker
}

// Name implements Balancer.
func (b *MILPBalancer) Name() string { return "milp" }

// Plan implements Balancer. The solve respects both the configured
// TimeLimit and ctx: whichever deadline is earlier wins, and cancellation
// aborts the anytime improvement loop, returning the best feasible plan
// found so far.
func (b *MILPBalancer) Plan(ctx context.Context, s *Snapshot) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var dirty []bool
	if b.Incremental {
		dirty = b.tracker.region(s, DefaultDirtyLoadDelta, DefaultDirtyTopK)
		b.tracker.observe(s)
	}
	p, itemOf := s.problem(nil, dirty)
	sol, err := assign.SolveCtx(ctx, p, assign.Options{
		TimeLimit: b.TimeLimit,
		Seed:      b.Seed,
	})
	if err != nil {
		return nil, err
	}
	return s.planOf(itemOf, sol), nil
}

// NoopBalancer keeps the current allocation (used for PoTC runs, where
// balance comes from two-choice routing rather than migration).
type NoopBalancer struct{}

// Name implements Balancer.
func (NoopBalancer) Name() string { return "noop" }

// Plan implements Balancer.
func (NoopBalancer) Plan(_ context.Context, s *Snapshot) (*Plan, error) {
	return PlanFromAssignment(s, currentAssignment(s), nil), nil
}
