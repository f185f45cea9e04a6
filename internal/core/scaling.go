package core

import (
	"math"
	"sort"
)

// UtilizationScaler is a utilization-band scaling policy in the spirit of
// the elasticity work the paper delegates to ([10,12]): keep the post-plan
// average utilization of alive nodes inside [LowWater, HighWater] by adding
// nodes or marking the least-loaded ones for removal, sized so the average
// lands near TargetUtil.
//
// Per Algorithm 1, the decision is made against the *tentative plan*: if
// rebalancing alone would cure an overloaded node, no scaling happens.
type UtilizationScaler struct {
	// TargetUtil is the desired post-scaling average utilization (default 70).
	TargetUtil float64
	// HighWater triggers scale-out when the plan's predicted maximum node
	// utilization exceeds it (default 90).
	HighWater float64
	// LowWater triggers scale-in when the plan's predicted average
	// utilization falls below it (default 45).
	LowWater float64
	// MinNodes is the smallest cluster size a decision may leave (default
	// 1); the size has no upper cap.
	MinNodes int
	// MaxStep caps how many nodes a single decision may add or mark
	// (default 4); gradual scaling keeps migration budgets meaningful.
	MaxStep int
}

func (u *UtilizationScaler) params() (target, high, low float64, minN, step int) {
	target, high, low = u.TargetUtil, u.HighWater, u.LowWater
	if target <= 0 {
		target = 70
	}
	if high <= 0 {
		high = 90
	}
	if low <= 0 {
		low = 45
	}
	minN, step = u.MinNodes, u.MaxStep
	if minN <= 0 {
		minN = 1
	}
	if step <= 0 {
		step = 4
	}
	return
}

// Decide implements Scaler.
func (u *UtilizationScaler) Decide(s *Snapshot, plan *Plan) ScaleDecision {
	target, high, low, minN, step := u.params()

	// Post-plan utilization per node.
	e := Evaluate(s, plan.GroupNode)
	total := 0.0
	for _, g := range s.Groups {
		total += g.Load
	}
	var alive []int
	capA, maxAfter := 0.0, 0.0
	for i := 0; i < s.NumNodes; i++ {
		if !s.Killed(i) {
			alive = append(alive, i)
			capA += s.Cap(i)
			maxAfter = max(maxAfter, e.Util[i])
		}
	}
	if capA == 0 {
		return ScaleDecision{}
	}

	// needed: unit-capacity node count so the average lands at TargetUtil.
	needed := int(math.Ceil(total / target))
	if needed < minN {
		needed = minN
	}

	switch {
	case maxAfter > high && needed > len(alive):
		// Even the best rebalanced allocation overloads some node: scale out.
		add := needed - len(alive)
		if add > step {
			add = step
		}
		return ScaleDecision{AddNodes: add}
	case e.Mean < low && needed < len(alive):
		// Underutilized: mark the least-loaded alive nodes for removal, but
		// never so many that the survivors could not absorb the load.
		remove := len(alive) - needed
		if remove > step {
			remove = step
		}
		// Undesirable-scale-in guard (Algorithm 1): the remaining nodes must
		// be able to hold the total load below the high-water mark.
		for remove > 0 {
			capLeft := capA
			sorted := append([]int(nil), alive...)
			sort.Slice(sorted, func(a, b int) bool { return e.Util[sorted[a]] < e.Util[sorted[b]] })
			for i := 0; i < remove; i++ {
				capLeft -= s.Cap(sorted[i])
			}
			if capLeft > 0 && total/capLeft <= high {
				return ScaleDecision{MarkForRemoval: sorted[:remove]}
			}
			remove--
		}
		return ScaleDecision{}
	default:
		return ScaleDecision{}
	}
}
