package core

import (
	"context"
	"sort"
)

// GreedyHotMover is the cheap balancer behind the reactive (sub-period)
// reconfiguration path. Where the MILP and ALBIC optimize the whole
// allocation under a full migration budget, the hot mover only relieves the
// currently hottest nodes: it repeatedly takes the most over-utilized node,
// picks its heaviest movable key groups and reassigns each to the
// least-utilized alive node already hosting the group's operator (the
// engine's mid-period restriction — host sets never change inside a period)
// — provided the move shrinks the donor/receiver spread by at least
// hotMinGain of it. It plans in microseconds on partial mid-period
// statistics, which is what lets a sub-period trigger fire it between
// tuples without stalling the data path.
//
// The snapshot's MaxMigrations caps the moves per invocation (<= 0 means
// hotMoveCap). Kill-marked nodes are valid donors but never receivers;
// migration cost is ignored (hot moves are meant for small, hot-headed
// groups — callers bound damage with the move cap instead).
type GreedyHotMover struct{}

const (
	// hotMoveCap caps the moves of a snapshot without MaxMigrations.
	hotMoveCap = 3
	// hotMinGain is the minimum relative spread reduction a single move must
	// achieve to be worth a mid-period migration: 2% of the donor-receiver
	// utilization spread.
	hotMinGain = 0.02
)

// Name implements Balancer.
func (g *GreedyHotMover) Name() string { return "greedy-hotmover" }

// Plan implements Balancer. It never blocks: ctx is only consulted between
// moves (the whole plan is a handful of slice scans).
func (g *GreedyHotMover) Plan(ctx context.Context, s *Snapshot) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	budget := s.MaxMigrations
	if budget <= 0 {
		budget = hotMoveCap
	}

	groupNode := make([]int, len(s.Groups))
	util := make([]float64, s.NumNodes)
	for k, gr := range s.Groups {
		groupNode[k] = gr.Node
		util[gr.Node] += gr.Load / s.capacity(gr.Node)
	}

	// groupsByNode, heaviest first, so donors shed their hottest groups.
	// Sorting is lazy: only the handful of nodes that actually become
	// donors pay for it — at 16k groups on 100+ nodes the eager variant
	// spent its whole budget sorting lists it never looked at.
	groupsByNode := make([][]int, s.NumNodes)
	for k, gr := range s.Groups {
		groupsByNode[gr.Node] = append(groupsByNode[gr.Node], k)
	}
	sorted := make([]bool, s.NumNodes)
	sortNode := func(n int) {
		if sorted[n] {
			return
		}
		sorted[n] = true
		gs := groupsByNode[n]
		sort.Slice(gs, func(a, b int) bool {
			if s.Groups[gs[a]].Load != s.Groups[gs[b]].Load {
				return s.Groups[gs[a]].Load > s.Groups[gs[b]].Load
			}
			return gs[a] < gs[b]
		})
	}

	// opHosts[op] marks nodes currently holding at least one of the op's
	// groups. A hot move may only target such a node — the engine enforces
	// the same restriction (host sets, and with them barrier routing, never
	// change mid-period), so planning anything else would be a silent no-op.
	opHosts := make([]map[int]bool, len(s.Ops))
	for op := range opHosts {
		opHosts[op] = map[int]bool{}
	}
	for _, gr := range s.Groups {
		opHosts[gr.Op][gr.Node] = true
	}

	for moved := 0; moved < budget; moved++ {
		if ctx.Err() != nil {
			break
		}
		donor := -1
		for i := 0; i < s.NumNodes; i++ {
			if len(groupsByNode[i]) == 0 {
				continue
			}
			if donor == -1 || util[i] > util[donor] {
				donor = i
			}
		}
		if donor == -1 {
			break
		}
		sortNode(donor)
		// Best group on the donor: the heaviest one whose own operator has
		// an alive host the move meaningfully improves the donor/receiver
		// spread toward (a group bigger than the spread would just swap
		// which node is hot).
		bestIdx, bestTo := -1, -1
		for idx, k := range groupsByNode[donor] {
			load := s.Groups[k].Load
			if load <= 0 {
				continue
			}
			receiver := -1
			for i := range opHosts[s.Groups[k].Op] {
				if s.killed(i) || i == donor {
					continue
				}
				// Deterministic argmin (map order is random): lowest id wins
				// utilization ties.
				if receiver == -1 || util[i] < util[receiver] ||
					(util[i] == util[receiver] && i < receiver) {
					receiver = i
				}
			}
			if receiver == -1 {
				continue
			}
			spread := util[donor] - util[receiver]
			if spread <= 0 {
				continue
			}
			newSpread := (util[donor] - load/s.capacity(donor)) -
				(util[receiver] + load/s.capacity(receiver))
			if newSpread < 0 {
				newSpread = -newSpread
			}
			if spread-newSpread >= hotMinGain*spread {
				bestIdx, bestTo = idx, receiver
				break // heaviest-first order: first fit is the best fit
			}
		}
		if bestIdx == -1 {
			break
		}
		k := groupsByNode[donor][bestIdx]
		groupsByNode[donor] = append(groupsByNode[donor][:bestIdx], groupsByNode[donor][bestIdx+1:]...)
		groupsByNode[bestTo] = append(groupsByNode[bestTo], k)
		util[donor] -= s.Groups[k].Load / s.capacity(donor)
		util[bestTo] += s.Groups[k].Load / s.capacity(bestTo)
		groupNode[k] = bestTo
	}
	return PlanFromAssignment(s, groupNode, nil), nil
}
