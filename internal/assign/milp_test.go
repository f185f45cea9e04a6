package assign

import (
	"fmt"
	"math"
	"time"

	"repro/internal/lp"
)

// This file is the tests' exact oracle: the paper's MILP handed to the
// branch-and-bound solver of internal/lp, the role CPLEX plays in the paper.
// Production plans with the anytime solver alone (solver.go); the tests hold
// it to this oracle's proven optimum on small instances.

// buildMILP constructs the paper's Mixed-Integer Linear Program (Table 2 /
// Section 4.3.1) for a validated problem:
//
//	min  W1·d − W2·(du+dl) + W3·Σ_{i∈B} load_i
//	s.t. (1) Σ_i x_{i,t} = 1                          for every item t
//	     (2) Σ_{i≠cur(t)} x_{i,t}·mc_t ≤ maxMigrCost  (and/or count variant)
//	     (3) Σ_t x_{i,t}·load_t ≤ cap_i·(mean + d − du)          ∀ i
//	     (4) Σ_t x_{i,t}·load_t ≥ cap_i·(mean − d + dl)          ∀ i ∉ B
//	     (5) d ≤ mean
//
// Pinned items are folded in as constants. The returned index maps item t to
// the column of x_{i,t} for node i (-1 for pinned items).
func buildMILP(p *Problem) (*lp.Model, [][]int, error) {
	m := lp.NewModel()
	mean := p.Mean()

	d := m.AddVar("d", 0, mean, W1) // constraint (5) folded into the bound
	du := m.AddVar("du", 0, lp.Inf, -W2)
	dl := m.AddVar("dl", 0, lp.Inf, -W2)

	// pinnedLoad[i] accumulates load fixed on node i by pins and by the
	// problem's frozen background load (incremental dirty-region planning).
	pinnedLoad := make([]float64, p.NumNodes)
	for i, f := range p.Fixed {
		pinnedLoad[i] += f
	}
	x := make([][]int, len(p.Items))
	for t := range p.Items {
		it := &p.Items[t]
		if it.Pin >= 0 {
			pinnedLoad[it.Pin] += it.Load
			x[t] = nil
			continue
		}
		x[t] = make([]int, p.NumNodes)
		for i := 0; i < p.NumNodes; i++ {
			obj := 0.0
			if p.killed(i) {
				obj = W3 * it.Load
			}
			x[t][i] = m.AddBinVar(fmt.Sprintf("x_%d_%d", i, t), obj)
		}
		// (1) each item on exactly one node.
		m.AddCons(fmt.Sprintf("assign_%d", t), x[t], ones(p.NumNodes), lp.EQ, 1)
	}

	// (2) migration budget(s). Pinned items consume budget as constants.
	pinCost, pinMigs := 0.0, 0
	for t := range p.Items {
		it := &p.Items[t]
		if it.Pin >= 0 && it.Pin != it.Cur {
			pinCost += it.MigCost
			pinMigs += it.GroupCount()
		}
	}
	if p.MaxMigrCost > 0 {
		var vars []int
		var coefs []float64
		for t := range p.Items {
			it := &p.Items[t]
			if x[t] == nil {
				continue
			}
			for i := 0; i < p.NumNodes; i++ {
				if i != it.Cur {
					vars = append(vars, x[t][i])
					coefs = append(coefs, it.MigCost)
				}
			}
		}
		if p.MaxMigrCost-pinCost < -1e-9 {
			return nil, nil, fmt.Errorf("assign: pins exceed migration cost budget")
		}
		if len(vars) > 0 {
			m.AddCons("migcost", vars, coefs, lp.LE, p.MaxMigrCost-pinCost)
		}
	}
	if p.MaxMigrations > 0 {
		var vars []int
		var coefs []float64
		for t := range p.Items {
			it := &p.Items[t]
			if x[t] == nil {
				continue
			}
			for i := 0; i < p.NumNodes; i++ {
				if i != it.Cur {
					vars = append(vars, x[t][i])
					coefs = append(coefs, float64(it.GroupCount()))
				}
			}
		}
		if p.MaxMigrations < pinMigs {
			return nil, nil, fmt.Errorf("assign: pins exceed migration count budget")
		}
		if len(vars) > 0 {
			m.AddCons("migcount", vars, coefs, lp.LE, float64(p.MaxMigrations-pinMigs))
		}
	}

	// (3) and (4): per-node load bounds.
	for i := 0; i < p.NumNodes; i++ {
		cap := p.capacity(i)
		var vars []int
		var coefs []float64
		for t := range p.Items {
			if x[t] == nil {
				continue
			}
			vars = append(vars, x[t][i])
			coefs = append(coefs, p.Items[t].Load)
		}
		up := append(append([]int(nil), vars...), d, du)
		upC := append(append([]float64(nil), coefs...), -cap, cap)
		m.AddCons(fmt.Sprintf("upper_%d", i), up, upC, lp.LE, cap*mean-pinnedLoad[i])
		if p.killed(i) {
			continue
		}
		lo := append(append([]int(nil), vars...), d, dl)
		loC := append(append([]float64(nil), coefs...), cap, -cap)
		m.AddCons(fmt.Sprintf("lower_%d", i), lo, loC, lp.GE, cap*mean-pinnedLoad[i])
	}
	return m, x, nil
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// solveExact solves the problem with the branch-and-bound MILP solver and
// converts the result back to an assignment. optimal reports whether the
// search proved it optimal; a search that hits its 30 s bound returns the
// best incumbent it found.
func solveExact(p *Problem) (sol *Solution, optimal bool, err error) {
	const timeLimit = 30 * time.Second
	if err := p.Validate(); err != nil {
		return nil, false, err
	}
	m, x, err := buildMILP(p)
	if err != nil {
		return nil, false, err
	}
	ms := lp.SolveMILP(m, lp.MILPOptions{TimeLimit: timeLimit})
	switch ms.Status {
	case lp.Optimal, lp.TimeLimit:
		if ms.X == nil {
			return nil, false, fmt.Errorf("assign: exact solve found no incumbent (status %v)", ms.Status)
		}
	default:
		return nil, false, fmt.Errorf("assign: exact solve failed: %v", ms.Status)
	}
	itemNode := make([]int, len(p.Items))
	for t := range p.Items {
		it := &p.Items[t]
		if it.Pin >= 0 {
			itemNode[t] = it.Pin
			continue
		}
		bestI, bestV := -1, -1.0
		for i := 0; i < p.NumNodes; i++ {
			if v := ms.Value(x[t][i]); v > bestV {
				bestV, bestI = v, i
			}
		}
		if bestV < 0.5 || math.IsNaN(bestV) {
			return nil, false, fmt.Errorf("assign: item %d has no selected node in MILP solution", t)
		}
		itemNode[t] = bestI
	}
	e := p.Evaluate(itemNode)
	if !p.WithinBudget(e) {
		return nil, false, fmt.Errorf("assign: exact solution violates budget (cost %.3f, migrations %d)",
			e.MigrCost, e.Migrations)
	}
	return &Solution{ItemNode: itemNode, Eval: e}, ms.Status == lp.Optimal, nil
}
