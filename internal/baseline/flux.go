// Package baseline implements the systems the paper compares against:
//
//   - Flux (Shah et al., ICDE 2003): periodic pairwise partition exchange
//     between the most- and least-loaded nodes.
//   - COLA (Khandekar et al., Middleware 2009): from-scratch balanced graph
//     partitioning of the key-group communication graph each invocation.
//   - PoTC ("The Power of Two Choices", Nasir et al., ICDE 2015): two-choice
//     routing with a merge step; implemented as a routing policy in
//     internal/engine, with its configuration type here.
package baseline

import (
	"context"
	"sort"

	"repro/internal/core"
)

// Flux implements the paper's description of the Flux adaptive partitioning
// operator: at each period, sort nodes by load descending, then move the
// biggest suitable key group from the 1st node to the last, from the 2nd to
// the second-last, and so on, bounded by the migration budget.
type Flux struct{}

// Name implements core.Balancer.
func (Flux) Name() string { return "flux" }

// Plan implements core.Balancer. It runs to completion and ignores ctx.
func (Flux) Plan(_ context.Context, s *core.Snapshot) (*core.Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	assign := make([]int, len(s.Groups))
	groupsOn := make([][]int, s.NumNodes)
	utils := make([]float64, s.NumNodes)
	for k, g := range s.Groups {
		assign[k] = g.Node
		groupsOn[g.Node] = append(groupsOn[g.Node], k)
		utils[g.Node] += g.Load / s.Cap(g.Node)
	}
	budget := s.MaxMigrations
	if budget <= 0 {
		budget = len(s.Groups)
	}
	moved := 0

	// Repeat full pairing passes while budget remains and progress is made.
	for pass := 0; pass < s.NumNodes && moved < budget; pass++ {
		order := nodesByLoadDesc(s, utils)
		progressed := false
		for i, j := 0, len(order)-1; i < j && moved < budget; i, j = i+1, j-1 {
			donor, receiver := order[i], order[j]
			if s.Killed(receiver) {
				// Never move load onto a node marked for removal.
				j++ // keep receiver index; advance donor only
				continue
			}
			diff := utils[donor] - utils[receiver]
			if diff <= 1e-9 {
				continue
			}
			// Biggest suitable partition: largest group on the donor whose
			// move decreases the pair's imbalance (load < diff).
			best, bestLoad := -1, 0.0
			for _, k := range groupsOn[donor] {
				l := s.Groups[k].Load
				if l/s.Cap(donor) < diff && l > bestLoad {
					bestLoad, best = l, k
				}
			}
			if best == -1 {
				continue
			}
			// Apply the move.
			utils[donor] -= s.Groups[best].Load / s.Cap(donor)
			utils[receiver] += s.Groups[best].Load / s.Cap(receiver)
			groupsOn[donor] = removeInt(groupsOn[donor], best)
			groupsOn[receiver] = append(groupsOn[receiver], best)
			assign[best] = receiver
			moved++
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return core.PlanFromAssignment(s, assign, nil), nil
}

// nodesByLoadDesc sorts node ids by utilization descending; kill-marked
// nodes sort first (they must shed everything), empty ones last.
func nodesByLoadDesc(s *core.Snapshot, utils []float64) []int {
	order := make([]int, s.NumNodes)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		na, nb := order[a], order[b]
		ka, kb := s.Killed(na), s.Killed(nb)
		if ka != kb {
			return ka // kill-marked nodes are the most urgent donors
		}
		return utils[na] > utils[nb]
	})
	return order
}

func removeInt(xs []int, v int) []int {
	for i, x := range xs {
		if x == v {
			xs[i] = xs[len(xs)-1]
			return xs[:len(xs)-1]
		}
	}
	return xs
}
