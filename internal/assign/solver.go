package assign

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"
)

// Options configures Solve.
type Options struct {
	// TimeLimit is the anytime budget (the paper's CPLEX solve-time knob in
	// Figures 2-4): a ceiling, not a sleep. The improvement loop returns as
	// soon as it has converged (see lnsPatience), so a solve that finds its
	// answer early costs what the answer cost; only a search that is still
	// improving runs into the limit, and every pass stops there at its next
	// step. Default DefaultTimeLimit.
	TimeLimit time.Duration
	// Seed drives the deterministic randomized improvement phase.
	Seed int64
}

// DefaultTimeLimit is the anytime budget of a solve whose Options leave
// TimeLimit at zero.
const DefaultTimeLimit = 50 * time.Millisecond

// lnsPatience is the convergence stop of the anytime search: the
// large-neighbourhood phase ends after lnsPatience·|alive nodes| consecutive
// rounds that found no better repacking. A round re-packs the worst node with
// up to four random others, so the patience scales with the number of
// neighbourhoods there are to try. It is a constant, not an option: a solve
// that converges before its deadline is then a pure function of problem and
// seed, and costs what its answer cost. Late improvements are a lottery with
// a long tail; 192 is the smallest of {32, 64, ..., 256} at which every
// instance family of this package's tests (and 8x64, 20x200 and 60x1200
// random ones) ends at a load distance no worse than the search that spun
// until a 150 ms deadline reached (TestConvergedNoWorseThanDeadlineBound).
// On a 64-item, 8-node problem that is 1536 rounds, about 2 ms.
const lnsPatience = 192

// Solve computes a new assignment for the problem. The anytime solver always
// returns a feasible plan (budget respected, pins honored, no load moved to
// kill-marked nodes); quality improves with TimeLimit until the search
// converges, after which more budget buys nothing and is not spent.
func Solve(p *Problem, opt Options) (*Solution, error) {
	return SolveCtx(context.Background(), p, opt)
}

// SolveCtx is Solve with cancellation: the effective budget is the earlier
// of TimeLimit and ctx's deadline — callers that make several solves share
// one budget by giving them one deadline. The budget is a ceiling: every
// pass (greedy, swap, lookahead, repacking) checks it before each step, and
// a solve past its deadline or with ctx cancelled returns the best feasible
// solution found so far — the starting assignment, if it expired before the
// first step. SolveCtx never returns ctx.Err() once a feasible starting
// assignment exists — a cancelled solve degrades to a cheaper solve, it does
// not fail.
func SolveCtx(ctx context.Context, p *Problem, opt Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opt.TimeLimit <= 0 {
		opt.TimeLimit = DefaultTimeLimit
	}
	deadline := time.Now().Add(opt.TimeLimit)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	s := newSearch(p, opt.Seed)
	s.ctx, s.deadline = ctx, deadline
	if err := s.init(); err != nil {
		return nil, err
	}
	// Single moves, pair exchanges between extreme nodes, then the
	// Lin-Kernighan lookahead (joint drains, multi-peak fixes) until it stops
	// paying, and large-neighbourhood repacking under the time budget.
	s.greedyMoves()
	s.swapPass()
	for !s.expired() && s.batchPass() {
		s.greedyMoves()
		s.swapPass()
	}
	s.lns()
	e := p.Evaluate(s.assign)
	if !p.WithinBudget(e) {
		// Can only happen through pins; init would have caught it.
		return nil, fmt.Errorf("assign: plan exceeds migration budget (cost %.3f, migrations %d)",
			e.MigrCost, e.Migrations)
	}
	return &Solution{ItemNode: s.assign, Eval: e}, nil
}

// search holds the incremental state of the anytime solver, plus the scratch
// its passes reuse: one solve runs thousands of candidate scans and repacking
// rounds, and none of them allocates once the buffers have grown.
type search struct {
	p      *Problem
	rng    *rand.Rand
	assign []int
	util   []float64 // per-node utilization
	cost   float64   // current migration cost vs Cur
	migs   int       // current migrated key-group count vs Cur
	mean   float64
	alive  []int
	capA   float64 // total capacity of alive nodes

	// The solve's budget: every pass stops at a step boundary once ctx is
	// cancelled or the deadline has passed (expired).
	ctx      context.Context
	deadline time.Time

	donorBuf, recvBuf []int // results of donors / receivers
	itemsA, itemsB    []int // results of itemsOn (two live at once in swapPass)
	start, best       snapshot
	// LNS state: the items heaviest first, and one round's scratch — the
	// neighbourhood (inSet marks its members while the pool is gathered), the
	// items stripped from it, and per item where it was.
	byLoad []int
	inSet  []bool
	nodes  []int
	pool   []int
	before []int
}

func newSearch(p *Problem, seed int64) *search {
	s := &search{
		p:      p,
		rng:    rand.New(rand.NewSource(seed ^ 0x5ee0)),
		mean:   p.Mean(),
		alive:  p.AliveNodes(),
		inSet:  make([]bool, p.NumNodes),
		before: make([]int, len(p.Items)),
	}
	for _, n := range s.alive {
		s.capA += p.capacity(n)
	}
	return s
}

// init builds the starting assignment: every item where it is, pins applied.
// Returns an error if the pins alone bust the budget.
func (s *search) init() error {
	p := s.p
	s.assign = make([]int, len(p.Items))
	s.util = make([]float64, p.NumNodes)
	for i, f := range p.Fixed {
		s.util[i] = f / p.capacity(i)
	}
	for idx := range p.Items {
		it := &p.Items[idx]
		if it.Pin >= 0 {
			s.place(idx, it.Pin)
		} else {
			s.place(idx, it.Cur)
		}
	}
	if p.MaxMigrCost > 0 && s.cost > p.MaxMigrCost+1e-9 {
		return fmt.Errorf("assign: pinned items require migration cost %.3f > budget %.3f",
			s.cost, p.MaxMigrCost)
	}
	if p.MaxMigrations > 0 && s.migs > p.MaxMigrations {
		return fmt.Errorf("assign: pinned items require %d migrations > budget %d",
			s.migs, p.MaxMigrations)
	}
	return nil
}

// place puts item idx on node n, updating utilization and budget tallies.
// The item must not currently be placed.
func (s *search) place(idx, n int) {
	it := &s.p.Items[idx]
	s.assign[idx] = n
	s.util[n] += it.Load / s.p.capacity(n)
	if it.Cur != n {
		s.cost += it.MigCost
		s.migs += it.GroupCount()
	}
}

// unplace is the inverse of place: it lifts item idx off its node.
func (s *search) unplace(idx int) {
	it := &s.p.Items[idx]
	n := s.assign[idx]
	s.util[n] -= it.Load / s.p.capacity(n)
	if it.Cur != n {
		s.cost -= it.MigCost
		s.migs -= it.GroupCount()
	}
	s.assign[idx] = -1
}

// moveDelta returns the change in migration cost and count if item idx moved
// from its current assignment to node `to`.
func (s *search) moveDelta(idx, to int) (dcost float64, dmigs int) {
	it := &s.p.Items[idx]
	from := s.assign[idx]
	if from != it.Cur {
		dcost -= it.MigCost
		dmigs -= it.GroupCount()
	}
	if to != it.Cur {
		dcost += it.MigCost
		dmigs += it.GroupCount()
	}
	return dcost, dmigs
}

func (s *search) budgetOK(dcost float64, dmigs int) bool {
	p := s.p
	if p.MaxMigrCost > 0 && s.cost+dcost > p.MaxMigrCost+1e-9 {
		return false
	}
	if p.MaxMigrations > 0 && s.migs+dmigs > p.MaxMigrations {
		return false
	}
	return true
}

// objective computes the paper objective from the current util vector.
func (s *search) objective() float64 { return s.objectiveWith(-1, 0, -1, 0) }

// objectiveWith is objective with the utilization of up to two nodes
// overridden (a node of -1 overrides nothing): how a candidate move or swap
// between a and b would score, without mutating state.
func (s *search) objectiveWith(a int, ua float64, b int, ub float64) float64 {
	p := s.p
	maxOver, maxUnder := math.Inf(-1), math.Inf(-1)
	killLoad := 0.0
	for i := 0; i < p.NumNodes; i++ {
		u := s.util[i]
		switch i {
		case a:
			u = ua
		case b:
			u = ub
		}
		dev := u - s.mean
		if dev > maxOver {
			maxOver = dev
		}
		if p.killed(i) {
			killLoad += u * p.capacity(i)
			continue
		}
		if -dev > maxUnder {
			maxUnder = -dev
		}
	}
	d := math.Max(math.Max(maxOver, maxUnder), 0)
	du := d - maxOver
	dl := d - maxUnder
	return W1*d - W2*(du+dl) + W3*killLoad
}

// moveObjective scores moving item idx from node `from` to node `to`.
func (s *search) moveObjective(idx, from, to int) float64 {
	load := s.p.Items[idx].Load
	return s.objectiveWith(
		from, s.util[from]-load/s.p.capacity(from),
		to, s.util[to]+load/s.p.capacity(to))
}

// apply commits a move of item idx to node `to`.
func (s *search) apply(idx, to int) {
	it := &s.p.Items[idx]
	from := s.assign[idx]
	dcost, dmigs := s.moveDelta(idx, to)
	s.util[from] -= it.Load / s.p.capacity(from)
	s.util[to] += it.Load / s.p.capacity(to)
	s.assign[idx] = to
	s.cost += dcost
	s.migs += dmigs
}

// aliveByUtil appends the alive nodes to buf ordered by utilization,
// descending when desc.
func (s *search) aliveByUtil(buf []int, desc bool) []int {
	start := len(buf)
	buf = append(buf, s.alive...)
	slices.SortFunc(buf[start:], func(a, b int) int {
		if desc {
			a, b = b, a
		}
		return cmp.Compare(s.util[a], s.util[b])
	})
	return buf
}

// donors returns the interesting source nodes: every kill-marked node still
// holding load plus the most over-utilized alive nodes. The result is valid
// until the next call.
func (s *search) donors(topK int) []int {
	p := s.p
	out := s.donorBuf[:0]
	for i := 0; i < p.NumNodes; i++ {
		if p.killed(i) && s.util[i] > 1e-12 {
			out = append(out, i)
		}
	}
	killed := len(out)
	out = s.aliveByUtil(out, true)
	if len(out) > killed+topK {
		out = out[:killed+topK]
	}
	s.donorBuf = out
	return out
}

// receivers returns the least-utilized alive nodes. The result is valid until
// the next call.
func (s *search) receivers(topK int) []int {
	out := s.aliveByUtil(s.recvBuf[:0], false)
	s.recvBuf = out
	if len(out) > topK {
		out = out[:topK]
	}
	return out
}

// itemsOn collects movable (unpinned) items on node n into buf.
func (s *search) itemsOn(n int, buf []int) []int {
	for idx := range s.p.Items {
		if s.assign[idx] == n && s.p.Items[idx].Pin < 0 {
			buf = append(buf, idx)
		}
	}
	return buf
}

// objEps is the margin by which a candidate's objective must drop for a
// local pass (greedy, swap, batch) to take it. It is absolute and, with
// W1 = 1e6 in front of the load distance, sits at the rounding noise of the
// incrementally maintained utilizations: the passes also take moves that
// change nothing but the last bits. That is deliberate — the objective is a
// maximum over nodes, so most neighbours of an assignment score the same, and
// drifting along such a plateau is how the passes reach assignments a
// strictly descending search does not (Real Job 1's steady load distance is
// 15 % worse without it). Every pass bounds its own iterations.
const objEps = 1e-9

// progressEps is the relative margin by which an LNS round must lower the
// objective for its repacking to be kept. The LNS phase ends on "no round
// kept anything for a while", so unlike the passes it must not mistake
// rounding noise for progress: re-packing the same items in another order
// re-sums the same utilizations to different last bits, which passes objEps
// about every other time, forever.
const progressEps = 1e-9

// bestMove scans donors × their items × receivers for the feasible move with
// the lowest resulting objective below `below`; idx is -1 when there is none.
func (s *search) bestMove(topK int, below float64) (idx, to int, obj float64) {
	idx, to, obj = -1, -1, below
	recv := s.receivers(topK)
	for _, donor := range s.donors(topK) {
		s.itemsA = s.itemsOn(donor, s.itemsA[:0])
		for _, cand := range s.itemsA {
			for _, r := range recv {
				if r == donor {
					continue
				}
				dcost, dmigs := s.moveDelta(cand, r)
				if !s.budgetOK(dcost, dmigs) {
					continue
				}
				if o := s.moveObjective(cand, donor, r); o < obj {
					obj, idx, to = o, cand, r
				}
			}
		}
	}
	return idx, to, obj
}

// expired reports whether the solve's budget is spent: ctx cancelled or the
// deadline passed.
func (s *search) expired() bool {
	return s.ctx.Err() != nil || time.Now().After(s.deadline)
}

// greedyMoves repeatedly applies the single best objective-improving move
// from a donor node to a receiver node, within budget.
func (s *search) greedyMoves() {
	maxIter := 4*len(s.p.Items) + 64
	for iter := 0; iter < maxIter && !s.expired(); iter++ {
		idx, to, _ := s.bestMove(8, s.objective()-objEps)
		if idx == -1 {
			return
		}
		s.apply(idx, to)
	}
}

// swapPass exchanges item pairs between the most over- and under-utilized
// alive nodes when that improves the objective within budget.
func (s *search) swapPass() {
	maxIter := len(s.p.Items) + 32
	for iter := 0; iter < maxIter && !s.expired(); iter++ {
		// Most over-utilized alive node and the three least utilized.
		var over int
		overDev := -math.Inf(1)
		for _, n := range s.alive {
			if dev := s.util[n] - s.mean; dev > overDev {
				overDev, over = dev, n
			}
		}
		bestA, bestB := -1, -1
		bestObj := s.objective() - objEps
		s.itemsA = s.itemsOn(over, s.itemsA[:0])
		for _, under := range s.receivers(3) {
			if under == over {
				continue
			}
			s.itemsB = s.itemsOn(under, s.itemsB[:0])
			for _, a := range s.itemsA {
				la := s.p.Items[a].Load
				for _, b := range s.itemsB {
					lb := s.p.Items[b].Load
					dca, dma := s.moveDelta(a, under)
					dcb, dmb := s.moveDelta(b, over)
					if !s.budgetOK(dca+dcb, dma+dmb) {
						continue
					}
					obj := s.objectiveWith(
						over, s.util[over]+(lb-la)/s.p.capacity(over),
						under, s.util[under]+(la-lb)/s.p.capacity(under))
					if obj < bestObj {
						bestObj, bestA, bestB = obj, a, b
					}
				}
			}
		}
		if bestA == -1 {
			return
		}
		under := s.assign[bestB]
		s.apply(bestA, under)
		s.apply(bestB, over)
	}
}

// snapshot captures the full mutable search state.
type snapshot struct {
	assign []int
	util   []float64
	cost   float64
	migs   int
}

// save copies the search state into sn, reusing sn's storage.
func (s *search) save(sn *snapshot) {
	sn.assign = append(sn.assign[:0], s.assign...)
	sn.util = append(sn.util[:0], s.util...)
	sn.cost = s.cost
	sn.migs = s.migs
}

func (s *search) restore(sn *snapshot) {
	copy(s.assign, sn.assign)
	copy(s.util, sn.util)
	s.cost = sn.cost
	s.migs = sn.migs
}

// batchPass performs Lin-Kernighan style lookahead: it applies a sequence of
// locally-best moves even when individual moves worsen the objective, then
// keeps the best prefix of the sequence if it improves on the start. This is
// what lets the solver drain kill-marked nodes jointly, like the MILP does,
// when no single migration is an improvement. Returns true if it improved
// the solution.
func (s *search) batchPass() bool {
	s.save(&s.start)
	startObj := s.objective()
	bestObj := startObj
	improved := false
	maxSteps := 16
	if s.p.MaxMigrations > 0 {
		if r := s.p.MaxMigrations - s.migs; r > 0 && r < maxSteps {
			maxSteps = r + 4
		}
	}
	for step := 0; step < maxSteps && !s.expired(); step++ {
		// Locally best move (allowed to be non-improving).
		idx, to, stepObj := s.bestMove(6, math.Inf(1))
		if idx == -1 {
			break
		}
		s.apply(idx, to)
		if stepObj < bestObj-objEps {
			bestObj = stepObj
			s.save(&s.best)
			improved = true
		}
	}
	if improved {
		s.restore(&s.best)
		return true
	}
	s.restore(&s.start)
	return false
}

// lns runs large-neighbourhood repacking: take the worst node plus a few
// random nodes, strip their movable items, repack with LPT, keep the result
// if the objective improves. It stops when the search has converged —
// lnsPatience·|alive| rounds in a row kept nothing — and, failing that, at
// the deadline or ctx cancellation.
func (s *search) lns() {
	if len(s.alive) < 2 || s.expired() {
		return
	}
	// Items heaviest first, ties in item order: every round packs its pool in
	// this order, so it is sorted once.
	s.byLoad = make([]int, len(s.p.Items))
	for idx := range s.byLoad {
		s.byLoad[idx] = idx
	}
	slices.SortStableFunc(s.byLoad, func(a, b int) int {
		return cmp.Compare(s.p.Items[b].Load, s.p.Items[a].Load)
	})
	patience := lnsPatience * len(s.alive)
	for round, stalled := 0, 0; stalled < patience; round++ {
		if s.expired() {
			return
		}
		if s.repack(round) {
			stalled = 0
			// Improvement kept; follow with quick local passes.
			s.greedyMoves()
			s.swapPass()
			s.batchPass()
		} else {
			stalled++
		}
	}
}

// neighbourhood picks one LNS round's nodes into s.nodes, ascending, and marks
// them in s.inSet (the caller clears the marks): the worst alive node by
// |dev|, one loaded kill node if any, and random alive nodes until five alive
// ones are in (kill nodes do not count toward the target, or the
// neighbourhood may lack enough receivers).
func (s *search) neighbourhood() {
	p := s.p
	s.nodes = s.nodes[:0]
	worst, worstDev := -1, -1.0
	for _, n := range s.alive {
		if dev := math.Abs(s.util[n] - s.mean); dev > worstDev {
			worstDev, worst = dev, n
		}
	}
	s.inSet[worst] = true
	s.nodes = append(s.nodes, worst)
	for i := 0; i < p.NumNodes; i++ {
		if p.killed(i) && s.util[i] > 1e-12 {
			s.inSet[i] = true
			s.nodes = append(s.nodes, i)
			break
		}
	}
	for haveAlive, wantAlive := 1, min(5, len(s.alive)); haveAlive < wantAlive; {
		if n := s.alive[s.rng.Intn(len(s.alive))]; !s.inSet[n] {
			s.inSet[n] = true
			s.nodes = append(s.nodes, n)
			haveAlive++
		}
	}
	slices.Sort(s.nodes)
}

// repack is one LNS round: strip the neighbourhood's movable items and pack
// them again, heaviest first. It reports whether the repacking was kept.
func (s *search) repack(round int) bool {
	p := s.p
	s.neighbourhood()
	// The pool comes out heaviest first because byLoad is.
	pool := s.pool[:0]
	for _, idx := range s.byLoad {
		if s.inSet[s.assign[idx]] && p.Items[idx].Pin < 0 {
			pool = append(pool, idx)
		}
	}
	s.pool = pool
	for _, n := range s.nodes {
		s.inSet[n] = false
	}
	if len(pool) == 0 {
		return false
	}
	beforeObj := s.objective()
	for _, idx := range pool {
		s.before[idx] = s.assign[idx]
		s.unplace(idx)
	}
	// Light shuffling for diversity.
	if round%3 == 1 && len(pool) > 2 {
		i := s.rng.Intn(len(pool) - 1)
		pool[i], pool[i+1] = pool[i+1], pool[i]
	}
	ok := true
	for _, idx := range pool {
		it := &p.Items[idx]
		best, bestU := -1, math.Inf(1)
		for _, n := range s.nodes {
			// Kill nodes may only keep items that already live there.
			if p.killed(n) && it.Cur != n {
				continue
			}
			dcost, dmigs := 0.0, 0
			if n != it.Cur {
				dcost, dmigs = it.MigCost, it.GroupCount()
			}
			if !s.budgetOK(dcost, dmigs) {
				continue
			}
			u := s.util[n] + it.Load/p.capacity(n)
			// Prefer staying put on ties to save budget.
			if u < bestU-1e-12 || (u < bestU+1e-12 && n == it.Cur) {
				bestU, best = u, n
			}
		}
		if best == -1 {
			ok = false
			break
		}
		s.place(idx, best)
	}
	if ok && s.objective() < beforeObj-progressEps*math.Max(1, math.Abs(beforeObj)) {
		return true
	}
	// Revert: strip any partial placement, restore the original.
	for _, idx := range pool {
		if s.assign[idx] != -1 {
			s.unplace(idx)
		}
	}
	for _, idx := range pool {
		s.place(idx, s.before[idx])
	}
	return false
}
