package baseline

import (
	"context"
	"sort"

	"repro/internal/core"
	"repro/internal/graphpart"
)

// COLA implements the comparison baseline of Sections 5.3-5.4: each
// invocation it re-optimizes the whole allocation from scratch with balanced
// graph partitioning over the key-group communication graph (vertex weight =
// load, edge weight = communication rate), one part per alive node.
//
// Because it re-optimizes from scratch, COLA reaches the optimal collocation
// immediately but ignores migration budgets entirely — the paper measures it
// migrating ~200 key groups per period where ALBIC needs ~10. Parts are
// mapped onto nodes with a greedy maximum-overlap matching so the migration
// count reported is the best case for COLA.
type COLA struct {
	// Seed is the base random seed.
	Seed int64

	round int64
}

const (
	// colaImbalance is the allowed partition imbalance ratio.
	colaImbalance = 1.05
	// colaSeeds is how many randomized partitionings a plan tries, keeping
	// the best by (load distance, edge cut).
	colaSeeds = 3
)

// Name implements core.Balancer.
func (c *COLA) Name() string { return "cola" }

// Plan implements core.Balancer. It runs to completion and ignores ctx.
func (c *COLA) Plan(_ context.Context, s *core.Snapshot) (*core.Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c.round++

	var alive []int
	for i := 0; i < s.NumNodes; i++ {
		if !s.Killed(i) {
			alive = append(alive, i)
		}
	}
	k := len(alive)

	// Communication graph over key groups.
	g := graphpart.NewGraph(len(s.Groups))
	for i, gs := range s.Groups {
		g.SetWeight(i, gs.Load)
	}
	s.Comm.ForEach(func(gi, gj int, rate float64) {
		if rate > 0 {
			g.AddEdge(gi, gj, rate)
		}
	})

	var bestAssign []int
	bestDist, bestCut := 0.0, 0.0
	for trial := 0; trial < colaSeeds; trial++ {
		part, err := graphpart.Partition(g, k, colaImbalance, c.Seed+c.round*31+int64(trial))
		if err != nil {
			return nil, err
		}
		assignment := mapPartsToNodes(s, part, alive)
		dist := core.Evaluate(s, assignment).LoadDistance
		cut := graphpart.EdgeCut(g, part)
		if bestAssign == nil || dist < bestDist-1e-9 ||
			(dist < bestDist+1e-9 && cut < bestCut) {
			bestAssign, bestDist, bestCut = assignment, dist, cut
		}
	}
	return core.PlanFromAssignment(s, bestAssign, nil), nil
}

// mapPartsToNodes assigns each part to an alive node, greedily maximizing
// the load already in place (to keep COLA's migration count at its best
// case).
func mapPartsToNodes(s *core.Snapshot, part []int, alive []int) []int {
	k := len(alive)
	// overlap[p][n] = load of part p currently residing on alive node n.
	overlap := make([][]float64, k)
	for p := range overlap {
		overlap[p] = make([]float64, k)
	}
	aliveIdx := map[int]int{}
	for i, n := range alive {
		aliveIdx[n] = i
	}
	for gid, p := range part {
		if ni, ok := aliveIdx[s.Groups[gid].Node]; ok {
			overlap[p][ni] += s.Groups[gid].Load
		}
	}
	type cand struct {
		p, n int
		w    float64
	}
	var cands []cand
	for p := 0; p < k; p++ {
		for n := 0; n < k; n++ {
			cands = append(cands, cand{p, n, overlap[p][n]})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].w != cands[b].w {
			return cands[a].w > cands[b].w
		}
		if cands[a].p != cands[b].p {
			return cands[a].p < cands[b].p
		}
		return cands[a].n < cands[b].n
	})
	partNode := make([]int, k)
	for i := range partNode {
		partNode[i] = -1
	}
	nodeUsed := make([]bool, k)
	for _, cd := range cands {
		if partNode[cd.p] == -1 && !nodeUsed[cd.n] {
			partNode[cd.p] = alive[cd.n]
			nodeUsed[cd.n] = true
		}
	}
	assignment := make([]int, len(s.Groups))
	for gid, p := range part {
		assignment[gid] = partNode[p]
	}
	return assignment
}
