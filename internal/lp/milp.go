package lp

import (
	"container/heap"
	"math"
	"time"
)

// MILPOptions configures SolveMILP.
type MILPOptions struct {
	// TimeLimit bounds the wall-clock solve time. Zero means no limit.
	TimeLimit time.Duration
}

const (
	// maxBBNodes bounds the number of branch-and-bound nodes a solve
	// explores.
	maxBBNodes = 200_000
	// gapTol stops the search when the relative gap between the incumbent
	// and the best bound is below it.
	gapTol = 1e-9
)

type bbNode struct {
	lo, hi []float64
	bound  float64 // LP relaxation objective (lower bound on subtree)
	depth  int
}

type nodeQueue []*bbNode

func (q nodeQueue) Len() int            { return len(q) }
func (q nodeQueue) Less(i, j int) bool  { return q[i].bound < q[j].bound }
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*bbNode)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// SolveMILP solves the model with best-bound branch and bound over the
// simplex relaxation. When the time or node limit is hit it returns the best
// incumbent found (Status TimeLimit) or Infeasible if none exists.
func SolveMILP(m *Model, opt MILPOptions) *Solution {
	var deadline time.Time
	if opt.TimeLimit > 0 {
		deadline = time.Now().Add(opt.TimeLimit)
	}

	n := len(m.Vars)
	rootLo := make([]float64, n)
	rootHi := make([]float64, n)
	for j, v := range m.Vars {
		rootLo[j], rootHi[j] = v.Lo, v.Hi
		if v.Integer {
			// Tighten integer bounds.
			if !math.IsInf(rootLo[j], -1) {
				rootLo[j] = math.Ceil(rootLo[j] - tolInt)
			}
			if !math.IsInf(rootHi[j], 1) {
				rootHi[j] = math.Floor(rootHi[j] + tolInt)
			}
		}
	}

	rel := solveLPBounds(m, rootLo, rootHi)
	switch rel.Status {
	case Infeasible:
		return &Solution{Status: Infeasible, Gap: math.NaN()}
	case Unbounded:
		return &Solution{Status: Unbounded, Gap: math.NaN()}
	case IterLimit:
		return &Solution{Status: IterLimit, Gap: math.NaN()}
	}

	var (
		incumbent    []float64
		incumbentObj = math.Inf(1)
	)
	tryIncumbent := func(x []float64, obj float64) {
		if obj < incumbentObj-1e-12 {
			incumbentObj = obj
			incumbent = append([]float64(nil), x...)
		}
	}

	// Rounding heuristic: round the relaxation and check feasibility.
	roundHeuristic := func(x []float64) {
		r := append([]float64(nil), x...)
		for j, v := range m.Vars {
			if v.Integer {
				r[j] = math.Round(r[j])
			}
		}
		if m.Feasible(r, tolFeas) {
			tryIncumbent(r, m.Eval(r))
		}
	}
	roundHeuristic(rel.X)

	fracVar := func(x []float64) int {
		best, bestFrac := -1, tolInt
		for j, v := range m.Vars {
			if !v.Integer {
				continue
			}
			f := math.Abs(x[j] - math.Round(x[j]))
			if f > bestFrac {
				// Most fractional first.
				bestFrac = f
				best = j
			}
		}
		return best
	}

	if fracVar(rel.X) == -1 && rel.Status == Optimal {
		return &Solution{Status: Optimal, X: rel.X, Obj: rel.Obj, Gap: 0}
	}

	queue := &nodeQueue{{lo: rootLo, hi: rootHi, bound: rel.Obj}}
	heap.Init(queue)
	nodes := 0
	timedOut := false
	for queue.Len() > 0 {
		if nodes >= maxBBNodes {
			timedOut = true
			break
		}
		if !deadline.IsZero() && nodes%16 == 0 && time.Now().After(deadline) {
			timedOut = true
			break
		}
		node := heap.Pop(queue).(*bbNode)
		if node.bound >= incumbentObj-gapAbs(incumbentObj, gapTol) {
			continue // pruned by bound
		}
		nodes++
		sol := solveLPBounds(m, node.lo, node.hi)
		if sol.Status != Optimal {
			continue
		}
		if sol.Obj >= incumbentObj-gapAbs(incumbentObj, gapTol) {
			continue
		}
		j := fracVar(sol.X)
		if j == -1 {
			tryIncumbent(sol.X, sol.Obj)
			continue
		}
		roundHeuristic(sol.X)
		floor := math.Floor(sol.X[j])
		// Down branch.
		dl := append([]float64(nil), node.lo...)
		dh := append([]float64(nil), node.hi...)
		dh[j] = floor
		heap.Push(queue, &bbNode{lo: dl, hi: dh, bound: sol.Obj, depth: node.depth + 1})
		// Up branch.
		ul := append([]float64(nil), node.lo...)
		uh := append([]float64(nil), node.hi...)
		ul[j] = floor + 1
		heap.Push(queue, &bbNode{lo: ul, hi: uh, bound: sol.Obj, depth: node.depth + 1})
	}

	if incumbent == nil {
		if timedOut {
			return &Solution{Status: TimeLimit, Gap: math.Inf(1)}
		}
		return &Solution{Status: Infeasible, Gap: math.NaN()}
	}
	bestBound := incumbentObj
	if queue.Len() > 0 {
		bestBound = (*queue)[0].bound
	}
	gap := relGap(incumbentObj, bestBound)
	st := Optimal
	if timedOut && gap > gapTol {
		st = TimeLimit
	}
	return &Solution{Status: st, X: incumbent, Obj: incumbentObj, Gap: gap}
}

func gapAbs(obj, tol float64) float64 {
	return tol * (1 + math.Abs(obj))
}

func relGap(incumbent, bound float64) float64 {
	if math.IsInf(incumbent, 1) {
		return math.Inf(1)
	}
	d := incumbent - bound
	if d < 0 {
		d = 0
	}
	return d / (1 + math.Abs(incumbent))
}
