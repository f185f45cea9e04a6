// Package core implements the paper's contribution: the integrative
// adaptation framework (Algorithm 1), the MILP-based key-group allocation
// (Section 4.3.1) and ALBIC, Autonomic Load Balancing with Integrated
// Collocation (Algorithm 2).
//
// The package operates on Snapshot values: the statistics a controller
// collected over the last statistics period (SPL). Both the live engine
// (internal/engine) and the synthetic optimizer experiments build Snapshots
// and apply the returned plans.
package core

import (
	"context"
	"fmt"

	"repro/internal/assign"
)

// GroupStat describes one key group at the end of a statistics period.
type GroupStat struct {
	// Op is the operator this group belongs to.
	Op int
	// Node currently hosting the group.
	Node int
	// Load is gLoad_k: the group's average load over the last SPL, in
	// percentage points of a unit-capacity node.
	Load float64
	// StateSize is |σ_k|, the serialized size of the group's state: the
	// migration cost of a group without a checkpoint.
	StateSize float64
	// HasCkpt reports that the group's state is resident in the engine's
	// incremental checkpoint store, making it eligible for checkpoint-
	// assisted migration: the move ships the checkpoint as its base beside
	// the delta since the checkpoint, and only the delta counts as
	// synchronous work. CkptDelta is that delta's encoded size, so the
	// migration cost drops to min(StateSize, CkptDelta) — the cost model
	// through which the planners naturally prefer moving checkpoint-
	// resident groups under a tight MaxMigrCost budget.
	HasCkpt   bool
	CkptDelta float64
}

// OpStat describes one operator of the running job.
type OpStat struct {
	Name string
	// Groups holds the global ids of the operator's key groups.
	Groups []int
	// Downstream lists operator indices that consume this operator's output.
	Downstream []int
}

// Snapshot is the controller's view of the system over the last SPL.
type Snapshot struct {
	NumNodes int
	// Capacity holds per-node capacity weights; nil means homogeneous.
	Capacity []float64
	// Kill marks nodes scheduled for removal by earlier scaling decisions.
	Kill []bool

	Groups []GroupStat
	Ops    []OpStat
	// Comm holds the observed communication rate out(gi, gj) between
	// key-group pairs (tuples or bytes per SPL; any consistent unit works),
	// with one row per group. nil means no traffic was observed. A CommCSR is
	// immutable, so Clone shares it.
	Comm *CommCSR

	// MaxMigrCost bounds migration cost per adaptation (paper constraint 2)
	// in the bytes the moves ship synchronously: a group's mc_k is its state
	// size, or its checkpoint delta when that is smaller (the paper's
	// mc_k = α·|σ_k| at α = 1). MaxMigrations is the count-based variant
	// used when comparing against Flux. <= 0 disables the respective bound.
	MaxMigrCost   float64
	MaxMigrations int
}

// Validate reports structural problems.
func (s *Snapshot) Validate() error {
	if s.NumNodes <= 0 {
		return fmt.Errorf("core: snapshot has %d nodes", s.NumNodes)
	}
	if s.Comm != nil && s.Comm.Rows() != len(s.Groups) {
		return fmt.Errorf("core: comm matrix has %d rows for %d groups", s.Comm.Rows(), len(s.Groups))
	}
	for k, g := range s.Groups {
		if g.Node < 0 || g.Node >= s.NumNodes {
			return fmt.Errorf("core: group %d on invalid node %d", k, g.Node)
		}
		if g.Op < 0 || g.Op >= len(s.Ops) {
			return fmt.Errorf("core: group %d has invalid op %d", k, g.Op)
		}
	}
	for i, op := range s.Ops {
		for _, d := range op.Downstream {
			if d < 0 || d >= len(s.Ops) {
				return fmt.Errorf("core: op %d downstream %d invalid", i, d)
			}
		}
		for _, g := range op.Groups {
			if g < 0 || g >= len(s.Groups) {
				return fmt.Errorf("core: op %d group %d invalid", i, g)
			}
			if s.Groups[g].Op != i {
				return fmt.Errorf("core: group %d listed under op %d but records op %d", g, i, s.Groups[g].Op)
			}
		}
	}
	return nil
}

// migCost returns the migration cost of group k: the bytes a move of k
// transfers synchronously — the full state, or only the delta since the last
// checkpoint when one is resident (checkpoint-assisted migration, never more
// than the full state).
func (s *Snapshot) migCost(k int) float64 {
	g := &s.Groups[k]
	if g.HasCkpt && g.CkptDelta < g.StateSize {
		return g.CkptDelta
	}
	return g.StateSize
}

// Problem builds the assign.Problem treating every key group as its own
// migration unit (the pure MILP of Section 4.3.1).
func (s *Snapshot) Problem() *assign.Problem {
	loads := make([]float64, len(s.Groups))
	costs := make([]float64, len(s.Groups))
	curs := make([]int, len(s.Groups))
	for k, g := range s.Groups {
		loads[k] = g.Load
		costs[k] = s.migCost(k)
		curs[k] = g.Node
	}
	return &assign.Problem{
		NumNodes:      s.NumNodes,
		Capacity:      cloneFloats(s.Capacity),
		Kill:          cloneBools(s.Kill),
		Items:         assign.SingleGroupItems(loads, costs, curs),
		MaxMigrCost:   s.MaxMigrCost,
		MaxMigrations: s.MaxMigrations,
	}
}

// DirtyProblem builds the assign.Problem restricted to the dirty groups:
// only they become migration-unit items, while every frozen group
// contributes its load to the per-node fixed background vector. The solver's
// work then scales with the dirty region, not the topology. A nil mask
// yields Problem() — the full solve.
func (s *Snapshot) DirtyProblem(dirty []bool) *assign.Problem {
	if dirty == nil {
		return s.Problem()
	}
	fixed := make([]float64, s.NumNodes)
	var items []assign.Item
	for k, g := range s.Groups {
		if !dirty[k] {
			fixed[g.Node] += g.Load
			continue
		}
		items = append(items, assign.Item{
			Groups: []int{k}, Load: g.Load, MigCost: s.migCost(k), Cur: g.Node, Pin: -1,
		})
	}
	return &assign.Problem{
		NumNodes:      s.NumNodes,
		Capacity:      cloneFloats(s.Capacity),
		Kill:          cloneBools(s.Kill),
		Items:         items,
		Fixed:         fixed,
		MaxMigrCost:   s.MaxMigrCost,
		MaxMigrations: s.MaxMigrations,
	}
}

// NodeLoads returns per-node load sums under the snapshot's current
// allocation (utilization, i.e. divided by capacity).
func (s *Snapshot) NodeLoads() []float64 {
	loads := make([]float64, s.NumNodes)
	for _, g := range s.Groups {
		loads[g.Node] += g.Load
	}
	for i := range loads {
		loads[i] /= s.capacity(i)
	}
	return loads
}

func (s *Snapshot) capacity(i int) float64 {
	if s.Capacity == nil {
		return 1
	}
	return s.Capacity[i]
}

func (s *Snapshot) killed(i int) bool { return s.Kill != nil && s.Kill[i] }

// Clone copies the snapshot's mutable state (plans must not mutate the
// caller's view). The immutable communication matrix is shared.
func (s *Snapshot) Clone() *Snapshot {
	c := *s
	c.Capacity = cloneFloats(s.Capacity)
	c.Kill = cloneBools(s.Kill)
	c.Groups = append([]GroupStat(nil), s.Groups...)
	c.Ops = make([]OpStat, len(s.Ops))
	for i, op := range s.Ops {
		c.Ops[i] = OpStat{
			Name:       op.Name,
			Groups:     append([]int(nil), op.Groups...),
			Downstream: append([]int(nil), op.Downstream...),
		}
	}
	return &c
}

func cloneFloats(v []float64) []float64 {
	if v == nil {
		return nil
	}
	return append([]float64(nil), v...)
}

func cloneBools(v []bool) []bool {
	if v == nil {
		return nil
	}
	return append([]bool(nil), v...)
}

// Plan is a target allocation produced by a balancer.
type Plan struct {
	// GroupNode maps every key group to its target node.
	GroupNode []int
	// Moves lists the groups whose node changes, in no particular order.
	Moves []Move
	// Eval is the assign-level valuation of the plan (may be nil for
	// balancers that do not compute one).
	Eval *assign.Eval
}

// Move is one key-group migration.
type Move struct {
	Group    int
	From, To int
}

// PlanFromAssignment derives a Plan (including the move list) from a target
// allocation.
func PlanFromAssignment(s *Snapshot, groupNode []int, eval *assign.Eval) *Plan {
	p := &Plan{GroupNode: groupNode, Eval: eval}
	for k, node := range groupNode {
		if node != s.Groups[k].Node {
			p.Moves = append(p.Moves, Move{Group: k, From: s.Groups[k].Node, To: node})
		}
	}
	return p
}

// Balancer computes a new key-group allocation from a snapshot. Plan must
// honor ctx: when the context is cancelled or its deadline passes, the
// balancer either returns promptly with its best feasible plan so far or
// with ctx.Err(). The asynchronous controller relies on this to abort a
// solve still in flight when its run ends.
type Balancer interface {
	Name() string
	Plan(ctx context.Context, s *Snapshot) (*Plan, error)
}
