package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/assign"
	"repro/internal/graphpart"
)

// ALBIC implements Algorithm 2: Autonomic Load Balancing with Integrated
// Collocation. Each invocation it
//
//  1. scores key-group pairs by observed communication rate against
//     avg(gi)·sF,
//  2. merges already-collocated high-scoring pairs into sets and splits
//     oversized sets with balanced graph partitioning (migration units),
//  3. optimistically pins one new beneficial pair to a shared node, and
//  4. solves the MILP with those constraints, relaxing the partition size
//     (maxPL −= stepPL) until the user's load-distance bound maxLD holds.
type ALBIC struct {
	// MaxLD is the maximum acceptable load distance (default 10).
	MaxLD float64
	// TimeLimit is the budget of one solve of the underlying MILP solver: a
	// ceiling, not a duration. A solve that converges returns early, and the
	// retry-without-pin of a solve whose pin busts the migration budget runs
	// on what is left of that solve's budget, not on a fresh one. Each
	// partition-relaxation step is a solve of its own. Zero means
	// assign.DefaultTimeLimit.
	TimeLimit time.Duration
	// Seed drives tie-breaking; it is advanced on every invocation.
	Seed int64

	// Incremental enables dirty-region planning: only the groups whose load
	// changed by more than DefaultDirtyLoadDelta since the previous
	// invocation — plus groups on kill-marked nodes, groups whose host
	// changed, and the communication out-neighborhoods of all of those — are
	// candidate movers (at most DefaultDirtyTopK of them by load delta,
	// forced movers always included); everything else is frozen in place as
	// fixed background load.
	// The planner falls back to a full solve on the first invocation, after
	// topology or cluster-size changes, and whenever the dirty region covers
	// every group — in which case the plan is identical to the
	// non-incremental one (same code path, same random stream).
	Incremental bool

	round   int64
	tracker dirtyTracker
}

// Name implements Balancer.
func (a *ALBIC) Name() string { return "albic" }

// The paper's ALBIC parameters: the initial maximum partition load maxPL,
// the decrease stepPL applied on each recalculation, and the score factor
// sF — a pair scores when its rate exceeds avg(gi)·sF.
const (
	albicMaxPL  = 25
	albicStepPL = 5
	albicSF     = 1.5
)

// maxLD is the user's load-distance bound: MaxLD, or the paper's 10.
func (a *ALBIC) maxLD() float64 {
	if a.MaxLD <= 0 {
		return 10
	}
	return a.MaxLD
}

// scored is one key-group pair that communicates above threshold.
type scored struct {
	gi, gj int
	rate   float64
}

// Plan implements Balancer. Cancellation aborts the partition-relaxation
// loop between solves and the MILP improvement phase within a solve,
// returning the best plan found so far (or ctx.Err() if none exists yet).
func (a *ALBIC) Plan(ctx context.Context, s *Snapshot) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	maxLD, maxPL := a.maxLD(), float64(albicMaxPL)
	a.round++
	rng := rand.New(rand.NewSource(a.Seed + a.round*1_000_003))

	var dirty []bool
	if a.Incremental {
		dirty = a.tracker.region(s, DefaultDirtyLoadDelta, DefaultDirtyTopK)
		a.tracker.observe(s)
	}
	colPairs, toBeCol := a.scorePairs(s, dirty)

	var best *Plan
	for {
		plan, err := a.solveOnce(ctx, s, colPairs, toBeCol, maxPL, rng, dirty)
		if err != nil {
			return nil, err
		}
		if best == nil || plan.Eval.LoadDistance < best.Eval.LoadDistance {
			best = plan
		}
		if plan.Eval.LoadDistance <= maxLD || maxPL <= 0 {
			return best, nil
		}
		if ctx.Err() != nil {
			return best, nil
		}
		// Load distance too high: use smaller (more) partitions (step 4).
		maxPL -= albicStepPL
		if maxPL < 0 {
			maxPL = 0
		}
	}
}

// scorePairs implements step 1. It returns the high-scoring pairs that are
// already collocated and those that are not yet. The scan is sparse: per
// group it walks only the CSR row of observed edges (each rate read once —
// the average and the threshold test share the scan), and the precomputed
// row maximum skips the emission pass for rows that cannot clear avg·sF.
// With a non-nil dirty mask only pairs with both endpoints dirty are
// emitted; frozen groups cannot move, so scoring them is wasted work.
func (a *ALBIC) scorePairs(s *Snapshot, dirty []bool) (colPairs, toBeCol []scored) {
	csr := s.Comm
	isDown := make([]bool, len(s.Ops))
	for oi := range s.Ops {
		op := &s.Ops[oi]
		downGroups := 0
		for _, d := range op.Downstream {
			if !isDown[d] {
				isDown[d] = true
				downGroups += len(s.Ops[d].Groups)
			}
		}
		if downGroups > 0 {
			for _, gk := range op.Groups {
				if dirty != nil && !dirty[gk] {
					continue
				}
				cols, rates := csr.Row(gk)
				output := 0.0
				for e, gj := range cols {
					if isDown[s.Groups[gj].Op] {
						output += rates[e]
					}
				}
				if output == 0 {
					continue
				}
				// avg(gk) is the group's output volume averaged over its
				// downstream groups, including the unobserved (zero-rate)
				// ones — same denominator as the dense enumeration used.
				threshold := output / float64(downGroups) * albicSF
				if csr.RowMax(gk) <= threshold {
					continue
				}
				for e, gj := range cols {
					rate := rates[e]
					if rate <= threshold || !isDown[s.Groups[gj].Op] {
						continue
					}
					if dirty != nil && !dirty[gj] {
						continue
					}
					p := scored{gi: gk, gj: int(gj), rate: rate}
					if s.Groups[gk].Node == s.Groups[gj].Node {
						colPairs = append(colPairs, p)
					} else {
						toBeCol = append(toBeCol, p)
					}
				}
			}
		}
		for _, d := range op.Downstream {
			isDown[d] = false
		}
	}
	return colPairs, toBeCol
}

// solveOnce implements steps 2-4 for a given maxPL on the problem s.problem
// poses: the partitions are items, and with a non-nil dirty mask the frozen
// groups are fixed background load.
func (a *ALBIC) solveOnce(ctx context.Context, s *Snapshot, colPairs, toBeCol []scored, maxPL float64, rng *rand.Rand, dirty []bool) (*Plan, error) {
	problem, itemOf := s.problem(a.buildPartitions(s, colPairs, maxPL, rng), dirty)

	// Step 3: improve collocation by pinning one new beneficial pair.
	pinned := a.pinBestPair(s, toBeCol, problem.Items, itemOf, rng)

	opt := assign.Options{TimeLimit: a.TimeLimit, Seed: a.Seed + a.round}
	if opt.TimeLimit <= 0 {
		opt.TimeLimit = assign.DefaultTimeLimit
	}
	// One deadline for the solve and its retry: SolveCtx's budget is the
	// earlier of TimeLimit and the context's deadline.
	ctx, cancel := context.WithTimeout(ctx, opt.TimeLimit)
	defer cancel()
	sol, err := assign.SolveCtx(ctx, problem, opt)
	if err != nil && pinned {
		// The new pin may exceed the migration budget; retry without it.
		for i := range problem.Items {
			problem.Items[i].Pin = -1
		}
		sol, err = assign.SolveCtx(ctx, problem, opt)
	}
	if err != nil {
		return nil, fmt.Errorf("albic: %w", err)
	}
	return s.planOf(itemOf, sol), nil
}

// buildPartitions implements step 2: merge collocated pairs into sets and
// split any set violating the migration-cost or partition-load constraints
// using balanced graph partitioning.
func (a *ALBIC) buildPartitions(s *Snapshot, colPairs []scored, maxPL float64, rng *rand.Rand) [][]int {
	dsu := newDSU(len(s.Groups))
	for _, p := range colPairs {
		dsu.union(p.gi, p.gj)
	}
	setOf := map[int][]int{}
	for _, p := range colPairs {
		for _, g := range []int{p.gi, p.gj} {
			r := dsu.find(g)
			found := false
			for _, m := range setOf[r] {
				if m == g {
					found = true
					break
				}
			}
			if !found {
				setOf[r] = append(setOf[r], g)
			}
		}
	}
	var queue [][]int
	for _, set := range setOf {
		if len(set) >= 2 {
			sort.Ints(set)
			queue = append(queue, set)
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i][0] < queue[j][0] })

	var final [][]int
	for len(queue) > 0 {
		set := queue[0]
		queue = queue[1:]
		if len(set) < 2 {
			continue // standalone group, not a partition
		}
		pmc, pl := 0.0, 0.0
		for _, g := range set {
			pmc += s.migCost(g)
			pl += s.Groups[g].Load
		}
		p1, p2 := 1, 1
		if s.MaxMigrCost > 0 {
			p1 = int(math.Ceil(pmc / s.MaxMigrCost))
		}
		if maxPL > 0 {
			p2 = int(math.Ceil(pl / maxPL))
		} else {
			p2 = len(set) // maxPL = 0: one partition per key group
		}
		parts := p1
		if p2 > parts {
			parts = p2
		}
		if parts <= 1 {
			final = append(final, set)
			continue
		}
		if parts >= len(set) {
			// Degenerates to singletons: no partitions survive.
			continue
		}
		// Graph model: vertices = key groups; edge weight = communication
		// rate; vertex weight = migration cost when the migration-cost
		// constraint is the binding one, else the load.
		useMC := false
		if s.MaxMigrCost > 0 && maxPL > 0 {
			rMC := pmc / s.MaxMigrCost
			rPL := pl / maxPL
			if rMC > rPL {
				useMC = true
			} else if rMC == rPL {
				useMC = rng.Intn(2) == 0 // ties broken randomly (paper)
			}
		} else if s.MaxMigrCost > 0 && maxPL <= 0 {
			useMC = true
		}
		csr := s.Comm
		g := graphpart.NewGraph(len(set))
		for i, gi := range set {
			if useMC {
				g.SetWeight(i, s.migCost(gi))
			} else {
				g.SetWeight(i, s.Groups[gi].Load)
			}
			for j := i + 1; j < len(set); j++ {
				gj := set[j]
				w := csr.Rate(gi, gj) + csr.Rate(gj, gi)
				if w > 0 {
					g.AddEdge(i, j, w)
				}
			}
		}
		assignment, err := graphpart.Partition(g, parts, 1.1, rng.Int63())
		if err != nil {
			continue
		}
		sub := make([][]int, parts)
		for i, p := range assignment {
			sub[p] = append(sub[p], set[i])
		}
		for _, piece := range sub {
			if len(piece) < 2 {
				continue // singletons are ordinary free items
			}
			if len(piece) == len(set) {
				// Partitioner made no progress: halve arbitrarily so the
				// loop terminates.
				half := len(piece) / 2
				queue = append(queue, piece[:half], piece[half:])
				continue
			}
			// Re-check the constraints on the piece (paper: "may need to be
			// applied again").
			queue = append(queue, piece)
		}
	}
	return final
}

// pinBestPair implements step 3: choose the highest-rate pair from the
// to-be-collocated set (ties broken randomly) and add the MILP constraint
// matching the paper's three cases. Returns whether a pin was added.
func (a *ALBIC) pinBestPair(s *Snapshot, toBeCol []scored, items []assign.Item, itemOf []int, rng *rand.Rand) bool {
	if len(toBeCol) == 0 {
		return false
	}
	maxRate := 0.0
	for _, p := range toBeCol {
		if p.rate > maxRate {
			maxRate = p.rate
		}
	}
	var cands []scored
	for _, p := range toBeCol {
		if p.rate >= maxRate*(1-1e-12) {
			cands = append(cands, p)
		}
	}
	pick := cands[rng.Intn(len(cands))]
	gi, gj := pick.gi, pick.gj
	itI, itJ := itemOf[gi], itemOf[gj]
	if itI == itJ {
		return false // already in the same migration unit
	}
	n1, n2 := s.Groups[gi].Node, s.Groups[gj].Node
	util := Evaluate(s, currentAssignment(s)).Util

	// Pick the target node per the paper's three cases.
	inPartI := len(items[itI].Groups) > 1
	inPartJ := len(items[itJ].Groups) > 1
	var target int
	switch {
	case inPartI && !inPartJ:
		target = n1 // case 2: join the partitioned side
	case !inPartI && inPartJ:
		target = n2
	default: // cases 1 and 3: the less-loaded of the two nodes
		target = n1
		if util[n2] < util[n1] {
			target = n2
		}
	}
	if s.Killed(target) {
		// Never pin onto a node marked for removal; use the other node.
		if target == n1 {
			target = n2
		} else {
			target = n1
		}
		if s.Killed(target) {
			return false
		}
	}
	items[itI].Pin = target
	items[itJ].Pin = target
	return true
}

// dsu is a small union-find.
type dsu struct{ parent []int }

func newDSU(n int) *dsu {
	d := &dsu{parent: make([]int, n)}
	for i := range d.parent {
		d.parent[i] = i
	}
	return d
}

func (d *dsu) find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

func (d *dsu) union(a, b int) {
	ra, rb := d.find(a), d.find(b)
	if ra != rb {
		d.parent[ra] = rb
	}
}
