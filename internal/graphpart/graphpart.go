// Package graphpart implements multilevel balanced graph partitioning in the
// style of METIS (Karypis & Kumar): heavy-edge-matching coarsening, greedy
// initial bisection, Fiduccia–Mattheyses boundary refinement, and k-way
// partitioning by recursive bisection.
//
// It is the substrate behind ALBIC's collocation-set splitting (Algorithm 2,
// step 2) and the COLA baseline, both of which the paper runs on METIS.
package graphpart

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Graph is an undirected weighted graph with weighted vertices.
type Graph struct {
	vw  []float64
	adj []map[int]float64
}

// NewGraph returns a graph with n vertices of weight 1.
func NewGraph(n int) *Graph {
	g := &Graph{vw: make([]float64, n), adj: make([]map[int]float64, n)}
	for i := range g.vw {
		g.vw[i] = 1
	}
	return g
}

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.vw) }

// SetWeight sets the weight of vertex v.
func (g *Graph) SetWeight(v int, w float64) { g.vw[v] = w }

// AddEdge adds w to the undirected edge weight between u and v. Self loops
// are ignored.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u == v || w == 0 {
		return
	}
	if g.adj[u] == nil {
		g.adj[u] = map[int]float64{}
	}
	if g.adj[v] == nil {
		g.adj[v] = map[int]float64{}
	}
	g.adj[u][v] += w
	g.adj[v][u] += w
}

// totalWeight returns the sum of vertex weights.
func (g *Graph) totalWeight() float64 {
	t := 0.0
	for _, w := range g.vw {
		t += w
	}
	return t
}

// neighbors iterates deterministically (sorted by vertex id).
func (g *Graph) neighbors(v int) []int {
	if g.adj[v] == nil {
		return nil
	}
	out := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// EdgeCut returns the total weight of edges crossing between different parts.
func EdgeCut(g *Graph, part []int) float64 {
	cut := 0.0
	for v := range g.adj {
		for u, w := range g.adj[v] {
			if u > v && part[u] != part[v] {
				cut += w
			}
		}
	}
	return cut
}

// Partition splits the graph into k parts of near-equal vertex weight while
// minimizing the weighted edge cut. imbalance is the allowed ratio of the
// heaviest part to the ideal part weight (e.g. 1.1 for 10% slack); values
// below 1.02 are clamped. The result maps each vertex to a part in [0, k).
func Partition(g *Graph, k int, imbalance float64, seed int64) ([]int, error) {
	n := g.Len()
	if k <= 0 {
		return nil, fmt.Errorf("graphpart: k = %d", k)
	}
	if imbalance < 1.02 {
		imbalance = 1.02
	}
	part := make([]int, n)
	if k == 1 || n == 0 {
		return part, nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	verts := make([]int, n)
	for i := range verts {
		verts[i] = i
	}
	kwayRecurse(g, verts, k, imbalance, part, 0, rng)
	return part, nil
}

// kwayRecurse partitions the induced subgraph on verts into k parts labelled
// base..base+k-1.
func kwayRecurse(g *Graph, verts []int, k int, imbalance float64, part []int, base int, rng *rand.Rand) {
	if k == 1 {
		for _, v := range verts {
			part[v] = base
		}
		return
	}
	kl := k / 2
	kr := k - kl
	sub := induce(g, verts)
	frac := float64(kl) / float64(k)
	side := bisect(sub, frac, imbalance, rng)
	var left, right []int
	for i, v := range verts {
		if side[i] == 0 {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	kwayRecurse(g, left, kl, imbalance, part, base, rng)
	kwayRecurse(g, right, kr, imbalance, part, base+kl, rng)
}

// induce builds the subgraph over verts (renumbered 0..len-1).
func induce(g *Graph, verts []int) *Graph {
	idx := make(map[int]int, len(verts))
	for i, v := range verts {
		idx[v] = i
	}
	sub := NewGraph(len(verts))
	for i, v := range verts {
		sub.vw[i] = g.vw[v]
		for u, w := range g.adj[v] {
			if j, ok := idx[u]; ok && j > i {
				sub.AddEdge(i, j, w)
			}
		}
	}
	return sub
}

// bisect splits g into side 0 (target weight frac·total) and side 1 using
// multilevel coarsening when the graph is large.
func bisect(g *Graph, frac, imbalance float64, rng *rand.Rand) []int {
	const coarsenThreshold = 48
	if g.Len() <= coarsenThreshold {
		side := initialBisect(g, frac, rng)
		fmRefine(g, side, frac, imbalance, rng)
		return side
	}
	coarse, mapTo := coarsen(g, rng)
	if coarse.Len() >= g.Len() {
		// No coarsening progress (e.g. no edges): partition directly.
		side := initialBisect(g, frac, rng)
		fmRefine(g, side, frac, imbalance, rng)
		return side
	}
	coarseSide := bisect(coarse, frac, imbalance, rng)
	side := make([]int, g.Len())
	for v := range side {
		side[v] = coarseSide[mapTo[v]]
	}
	fmRefine(g, side, frac, imbalance, rng)
	return side
}

// coarsen contracts a heavy-edge matching. Returns the coarse graph and the
// fine-to-coarse vertex map.
func coarsen(g *Graph, rng *rand.Rand) (*Graph, []int) {
	n := g.Len()
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	coarseCount := 0
	mapTo := make([]int, n)
	for i := range mapTo {
		mapTo[i] = -1
	}
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		// Heaviest-edge unmatched neighbor.
		best, bestW := -1, 0.0
		for _, u := range g.neighbors(v) {
			if match[u] == -1 && u != v {
				if w := g.adj[v][u]; w > bestW {
					bestW, best = w, u
				}
			}
		}
		if best >= 0 {
			match[v], match[best] = best, v
			mapTo[v] = coarseCount
			mapTo[best] = coarseCount
		} else {
			match[v] = v
			mapTo[v] = coarseCount
		}
		coarseCount++
	}
	coarse := NewGraph(coarseCount)
	for i := range coarse.vw {
		coarse.vw[i] = 0
	}
	for v := 0; v < n; v++ {
		coarse.vw[mapTo[v]] += g.vw[v]
		for u, w := range g.adj[v] {
			if u > v && mapTo[u] != mapTo[v] {
				coarse.AddEdge(mapTo[v], mapTo[u], w)
			}
		}
	}
	return coarse, mapTo
}

// initialBisect grows side 0 greedily from a seed vertex until it reaches
// the target weight, preferring frontier vertices with maximum connectivity
// to the growing region.
func initialBisect(g *Graph, frac float64, rng *rand.Rand) []int {
	n := g.Len()
	side := make([]int, n)
	for i := range side {
		side[i] = 1
	}
	if n == 0 {
		return side
	}
	target := g.totalWeight() * frac
	start := rng.Intn(n)
	gain := make([]float64, n)
	inRegion := make([]bool, n)
	regionW := 0.0
	add := func(v int) {
		inRegion[v] = true
		side[v] = 0
		regionW += g.vw[v]
		for u, w := range g.adj[v] {
			if !inRegion[u] {
				gain[u] += w
			}
		}
	}
	add(start)
	for regionW < target {
		best, bestGain := -1, math.Inf(-1)
		for v := 0; v < n; v++ {
			if !inRegion[v] && gain[v] > bestGain {
				bestGain, best = gain[v], v
			}
		}
		if best == -1 {
			break
		}
		// Stop if adding overshoots more than it helps.
		if regionW+g.vw[best] > target && regionW >= target*0.7 {
			if regionW+g.vw[best]-target > target-regionW {
				break
			}
		}
		add(best)
	}
	return side
}

// fmRefine runs Fiduccia–Mattheyses passes: repeatedly move the best-gain
// vertex across the cut subject to balance, keep the best prefix.
func fmRefine(g *Graph, side []int, frac, imbalance float64, rng *rand.Rand) {
	n := g.Len()
	total := g.totalWeight()
	target0 := total * frac
	target1 := total - target0
	maxW0 := target0 * imbalance
	maxW1 := target1 * imbalance

	w0 := 0.0
	for v := 0; v < n; v++ {
		if side[v] == 0 {
			w0 += g.vw[v]
		}
	}

	for pass := 0; pass < 6; pass++ {
		locked := make([]bool, n)
		// gain[v]: cut reduction if v switches side.
		gain := make([]float64, n)
		for v := 0; v < n; v++ {
			for u, w := range g.adj[v] {
				if side[u] == side[v] {
					gain[v] -= w
				} else {
					gain[v] += w
				}
			}
		}
		type step struct {
			v    int
			gain float64
		}
		var steps []step
		cum, bestCum, bestIdx := 0.0, 0.0, -1
		curW0 := w0
		for moved := 0; moved < n; moved++ {
			best, bestGain := -1, math.Inf(-1)
			for v := 0; v < n; v++ {
				if locked[v] {
					continue
				}
				// Balance feasibility after the move.
				nw0 := curW0
				if side[v] == 0 {
					nw0 -= g.vw[v]
				} else {
					nw0 += g.vw[v]
				}
				if nw0 > maxW0 || total-nw0 > maxW1 {
					// Allow the move anyway if it improves balance toward
					// the target (handles oversized single vertices).
					if math.Abs(nw0-target0) >= math.Abs(curW0-target0) {
						continue
					}
				}
				if gain[v] > bestGain {
					bestGain, best = gain[v], v
				}
			}
			if best == -1 {
				break
			}
			v := best
			locked[v] = true
			if side[v] == 0 {
				curW0 -= g.vw[v]
				side[v] = 1
			} else {
				curW0 += g.vw[v]
				side[v] = 0
			}
			for u, w := range g.adj[v] {
				if side[u] == side[v] {
					gain[u] -= 2 * w
				} else {
					gain[u] += 2 * w
				}
			}
			gain[v] = -gain[v]
			cum += bestGain
			steps = append(steps, step{v, bestGain})
			// Prefer strictly-better cuts; on ties prefer better balance.
			if cum > bestCum+1e-12 {
				bestCum = cum
				bestIdx = len(steps) - 1
			}
		}
		// Roll back to the best prefix.
		for i := len(steps) - 1; i > bestIdx; i-- {
			side[steps[i].v] ^= 1
		}
		// Recompute w0 after rollback.
		w0 = 0
		for v := 0; v < n; v++ {
			if side[v] == 0 {
				w0 += g.vw[v]
			}
		}
		if bestIdx < 0 {
			break // no improvement this pass
		}
	}
}
