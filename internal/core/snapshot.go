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

// Problem builds the assign.Problem that treats every key group as its own
// migration unit (the pure MILP of Section 4.3.1): item k is group k.
func (s *Snapshot) Problem() *assign.Problem {
	p, _ := s.problem(nil, nil)
	return p
}

// problem builds the solver problem every planner poses. Each part, a set of
// groups on one node that must move together, is one item, in order; every
// other group is an item of its own, unless dirty is given and leaves it out:
// such a frozen group keeps its node and adds its load to the problem's Fixed
// background, so the solver's work scales with the dirty region. itemOf maps
// each group to its item, or to -1 when it is frozen. A single-group item
// carries no Groups slice, so the problem costs no allocation per group.
func (s *Snapshot) problem(parts [][]int, dirty []bool) (p *assign.Problem, itemOf []int) {
	itemOf = make([]int, len(s.Groups))
	for k := range itemOf {
		itemOf[k] = -1
	}
	for pi, part := range parts {
		for _, g := range part {
			itemOf[g] = pi
		}
	}
	size := len(parts)
	for k := range s.Groups {
		if itemOf[k] < 0 && (dirty == nil || dirty[k]) {
			size++
		}
	}
	items := make([]assign.Item, len(parts), size)
	for pi, part := range parts {
		it := &items[pi]
		it.Groups, it.Cur, it.Pin = part, s.Groups[part[0]].Node, -1
		for _, g := range part {
			it.Load += s.Groups[g].Load
			it.MigCost += s.migCost(g)
		}
	}
	var fixed []float64
	if dirty != nil {
		fixed = make([]float64, s.NumNodes)
	}
	for k, g := range s.Groups {
		switch {
		case itemOf[k] >= 0:
		case dirty != nil && !dirty[k]:
			fixed[g.Node] += g.Load
		default:
			itemOf[k] = len(items)
			items = append(items, assign.Item{Load: g.Load, MigCost: s.migCost(k), Cur: g.Node, Pin: -1})
		}
	}
	return &assign.Problem{
		NumNodes:      s.NumNodes,
		Capacity:      cloneFloats(s.Capacity),
		Kill:          cloneBools(s.Kill),
		Items:         items,
		Fixed:         fixed,
		MaxMigrCost:   s.MaxMigrCost,
		MaxMigrations: s.MaxMigrations,
	}, itemOf
}

// planOf maps a solution of the problem that built itemOf back to a plan:
// each group goes where its item went, and a frozen group stays where it is.
func (s *Snapshot) planOf(itemOf []int, sol *assign.Solution) *Plan {
	groupNode := currentAssignment(s)
	for k, it := range itemOf {
		if it >= 0 {
			groupNode[k] = sol.ItemNode[it]
		}
	}
	return PlanFromAssignment(s, groupNode, sol.Eval)
}

// Evaluate values an allocation of the snapshot's groups (group -> node) as
// the solver does: it is s.Problem().Evaluate(groupNode). Its Mean is the
// paper's: the load of every group over the capacity of the nodes not marked
// for removal; its LoadDistance is the largest |util − mean| over those nodes.
func Evaluate(s *Snapshot, groupNode []int) *assign.Eval {
	return s.Problem().Evaluate(groupNode)
}

// Cap returns node i's capacity weight (1 when the snapshot is homogeneous).
func (s *Snapshot) Cap(i int) float64 {
	if s.Capacity == nil {
		return 1
	}
	return s.Capacity[i]
}

// Killed reports whether node i is marked for removal.
func (s *Snapshot) Killed(i int) bool { return s.Kill != nil && s.Kill[i] }

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
