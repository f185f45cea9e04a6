// Package assign models the paper's integrated key-group reallocation
// problem (Section 4.3.1) and solves it with one solver, in CPLEX's place: an
// anytime local search (greedy drain/repair, pair swaps, batch moves and
// large-neighbourhood repacking) that scales to the paper's largest
// experiments (60 nodes x 1200 key groups) under a wall-clock budget and
// uses no LP. The package's tests hold it to the exact optimum on small
// instances, found by enumerating every assignment.
//
// The problem is the one the engine poses each period: every item sits on a
// node now, and only its load is balanced, under a migration budget, with
// pins and nodes marked for removal. The objective is the paper's
// lexicographic MILP objective: minimize the load distance d, then maximize
// du+dl (tighten both bounds), then drain nodes marked for removal (the
// paper's secondary sum over B).
package assign

import (
	"fmt"
	"math"
)

// Item is an indivisible migration unit: one key group, or a set of
// collocated key groups that ALBIC requires to move together. All groups of
// an item are currently on the same node.
type Item struct {
	// Groups are the key-group ids of an item of several groups, and nil
	// for a single group. The solver treats the item as atomic and reads
	// only GroupCount, which counts nil as 1.
	Groups []int
	// Load is the item's total load contribution, in percentage points of a
	// unit-capacity node (the paper's gLoad, summed over Groups).
	Load float64
	// MigCost is the cost of migrating the item (the paper's mc_k = α·|σ_k|,
	// summed over Groups). Charged only when the item changes node.
	MigCost float64
	// Cur is the node currently holding the item.
	Cur int
	// Pin forces the item onto a specific node (ALBIC collocation
	// constraints). -1 means unpinned.
	Pin int
}

// GroupCount returns the number of key groups in the item (at least 1).
func (it *Item) GroupCount() int {
	if len(it.Groups) == 0 {
		return 1
	}
	return len(it.Groups)
}

// Problem is one invocation of the key-group allocation program.
type Problem struct {
	NumNodes int
	// Capacity holds per-node capacity weights for heterogeneous clusters
	// (Section 4.3.1, "Extending to Heterogeneous Nodes"). nil means all 1.
	Capacity []float64
	// Kill marks nodes scheduled for removal by the horizontal scaling
	// algorithm (the set B). Such nodes have no lower load bound and must
	// never receive load (Lemma 1).
	Kill  []bool
	Items []Item
	// Fixed holds per-node background load that is not up for reassignment
	// (same units as Item.Load). Incremental planners freeze the groups
	// outside the dirty region here instead of materializing them as pinned
	// items, so solver work scales with the dirty region, not the topology.
	// nil means no background load.
	Fixed []float64
	// MaxMigrCost bounds the total migration cost per invocation
	// (constraint 2). <= 0 means unlimited.
	MaxMigrCost float64
	// MaxMigrations bounds the number of migrated key groups per invocation
	// (the Flux-comparable variant used in Section 5.2). <= 0 means
	// unlimited.
	MaxMigrations int
}

// Validate reports structural problems.
func (p *Problem) Validate() error {
	if p.NumNodes <= 0 {
		return fmt.Errorf("assign: NumNodes = %d", p.NumNodes)
	}
	if p.Capacity != nil && len(p.Capacity) != p.NumNodes {
		return fmt.Errorf("assign: len(Capacity) = %d, want %d", len(p.Capacity), p.NumNodes)
	}
	if p.Kill != nil && len(p.Kill) != p.NumNodes {
		return fmt.Errorf("assign: len(Kill) = %d, want %d", len(p.Kill), p.NumNodes)
	}
	if p.Fixed != nil && len(p.Fixed) != p.NumNodes {
		return fmt.Errorf("assign: len(Fixed) = %d, want %d", len(p.Fixed), p.NumNodes)
	}
	for i, f := range p.Fixed {
		if f < 0 || math.IsNaN(f) {
			return fmt.Errorf("assign: node %d fixed load %g", i, f)
		}
	}
	alive := p.NumNodes
	for i := 0; i < p.NumNodes; i++ {
		if p.capacity(i) <= 0 {
			return fmt.Errorf("assign: node %d capacity %g <= 0", i, p.capacity(i))
		}
		if p.killed(i) {
			alive--
		}
	}
	if alive == 0 {
		return fmt.Errorf("assign: all %d nodes are marked for removal", p.NumNodes)
	}
	for idx, it := range p.Items {
		if it.Load < 0 || math.IsNaN(it.Load) {
			return fmt.Errorf("assign: item %d load %g", idx, it.Load)
		}
		if it.MigCost < 0 || math.IsNaN(it.MigCost) {
			return fmt.Errorf("assign: item %d migcost %g", idx, it.MigCost)
		}
		if it.Cur < 0 || it.Cur >= p.NumNodes {
			return fmt.Errorf("assign: item %d cur node %d out of range", idx, it.Cur)
		}
		if it.Pin < -1 || it.Pin >= p.NumNodes {
			return fmt.Errorf("assign: item %d pin node %d out of range", idx, it.Pin)
		}
		if it.Pin >= 0 && p.killed(it.Pin) {
			return fmt.Errorf("assign: item %d pinned to kill-marked node %d", idx, it.Pin)
		}
	}
	return nil
}

func (p *Problem) capacity(i int) float64 {
	if p.Capacity == nil {
		return 1
	}
	return p.Capacity[i]
}

func (p *Problem) killed(i int) bool { return p.Kill != nil && p.Kill[i] }

// AliveNodes returns the indices of nodes not marked for removal (the set A).
func (p *Problem) AliveNodes() []int {
	var a []int
	for i := 0; i < p.NumNodes; i++ {
		if !p.killed(i) {
			a = append(a, i)
		}
	}
	return a
}

// Mean returns the paper's mean: the total load over all nodes divided by
// the aggregate capacity of the nodes not marked for removal. With unit
// capacities this is (1/|A|)·Σ load_i.
func (p *Problem) Mean() float64 {
	total := 0.0
	for _, it := range p.Items {
		total += it.Load
	}
	for _, f := range p.Fixed {
		total += f
	}
	capA := 0.0
	for i := 0; i < p.NumNodes; i++ {
		if !p.killed(i) {
			capA += p.capacity(i)
		}
	}
	return total / capA
}

// Objective weights. The paper's objective reads "Minimize
// max|load_i − mean| AND Σ_{n∈B} load_i", with du+dl as the bound-tightening
// tie-breaker, giving three tiers: W1 (load distance) >> W3 (draining
// kill-marked nodes) >> W2 (du+dl). With this ordering the integrated solver
// spends a scarce migration budget on overloaded nodes first (the paper's
// Figure 5 "more urgent problems"), then drains, and only then polishes the
// bounds.
const (
	W1 = 1e6
	W2 = 1.0
	W3 = 100.0
)

// Eval is the valuation of one assignment.
type Eval struct {
	Util []float64 // per-node utilization (load / capacity)
	Mean float64
	// D is the MILP's d: the maximum of the largest upward deviation over
	// all nodes and the largest downward deviation over alive nodes.
	D float64
	// Du and Dl are the slack variables of constraints (3) and (4): how much
	// tighter than mean±d the upper and lower bounds actually are.
	Du, Dl float64
	// MaxOver is the largest util-mean over all nodes; MaxUnder the largest
	// mean-util over alive nodes.
	MaxOver, MaxUnder float64
	// LoadDistance is the reported metric: max over alive nodes of
	// |util - mean| (percentage points).
	LoadDistance float64
	// KillLoad is the total load remaining on kill-marked nodes.
	KillLoad float64
	// MigrCost and Migrations are the plan's cost relative to Cur.
	MigrCost   float64
	Migrations int
	// Obj is W1·D − W2·(Du+Dl) + W3·KillLoad.
	Obj float64
}

// Evaluate computes the objective of assignment (item index -> node).
//
// The paper's Mixed-Integer Linear Program (Table 2, Section 4.3.1), over
// binaries x_{i,t} (item t on node i) and the auxiliary d, du, dl ≥ 0, is
//
//	min  W1·d − W2·(du+dl) + W3·Σ_{i∈B} load_i
//	s.t. (1) Σ_i x_{i,t} = 1                          for every item t
//	     (2) Σ_{i≠cur(t)} x_{i,t}·mc_t ≤ maxMigrCost  (and/or count variant)
//	     (3) Σ_t x_{i,t}·load_t ≤ cap_i·(mean + d − du)          ∀ i
//	     (4) Σ_t x_{i,t}·load_t ≥ cap_i·(mean − d + dl)          ∀ i ∉ B
//	     (5) d ≤ mean
//
// with pinned items and Fixed load as constants on their nodes. Evaluate
// values one assignment, that is one choice of the x_{i,t}, and WithinBudget
// is constraint (2). The derivation of D, Du and Dl mirrors the MILP
// exactly: for a fixed assignment the MILP's optimal auxiliary variables are
// d = max(maxOver, maxUnder, 0), du = d − maxOver, dl = d − maxUnder, where
// maxOver ranges over all nodes and maxUnder over alive nodes only
// (constraint 4 is disabled for kill-marked nodes). Evaluate does not apply
// (5): an assignment that puts a node above twice the mean, which the MILP
// excludes, gets D > Mean here.
func (p *Problem) Evaluate(assignment []int) *Eval {
	e := &Eval{Util: make([]float64, p.NumNodes), Mean: p.Mean()}
	for i, f := range p.Fixed {
		e.Util[i] = f
	}
	for idx, node := range assignment {
		it := &p.Items[idx]
		e.Util[node] += it.Load
		if it.Cur != node {
			e.MigrCost += it.MigCost
			e.Migrations += it.GroupCount()
		}
	}
	e.MaxOver, e.MaxUnder = math.Inf(-1), math.Inf(-1)
	for i := 0; i < p.NumNodes; i++ {
		e.Util[i] /= p.capacity(i)
		dev := e.Util[i] - e.Mean
		if dev > e.MaxOver {
			e.MaxOver = dev
		}
		if p.killed(i) {
			e.KillLoad += e.Util[i] * p.capacity(i)
			continue
		}
		if -dev > e.MaxUnder {
			e.MaxUnder = -dev
		}
		if a := math.Abs(dev); a > e.LoadDistance {
			e.LoadDistance = a
		}
	}
	e.D = math.Max(math.Max(e.MaxOver, e.MaxUnder), 0)
	e.Du = e.D - e.MaxOver
	e.Dl = e.D - e.MaxUnder
	e.Obj = W1*e.D - W2*(e.Du+e.Dl) + W3*e.KillLoad
	return e
}

// WithinBudget reports whether the plan's migration cost and count respect
// the problem's limits.
func (p *Problem) WithinBudget(e *Eval) bool {
	if p.MaxMigrCost > 0 && e.MigrCost > p.MaxMigrCost+1e-9 {
		return false
	}
	if p.MaxMigrations > 0 && e.Migrations > p.MaxMigrations {
		return false
	}
	return true
}

// Solution is the result of a solve.
type Solution struct {
	// ItemNode maps each item index to its assigned node.
	ItemNode []int
	Eval     *Eval
}
