package core

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// converged is the solve budget of the tests that compare plans: a ceiling
// far above what a solve of synthSnapshot's size needs, so every solve ends
// on convergence, not on the clock, and its plan is a function of snapshot
// and seed.
const converged = time.Minute

// synthSnapshot builds a two-op chained topology over nGroups key groups on
// `nodes` nodes with reproducible random loads and sparse random comm —
// small enough that the anytime solver converges long before its budget, so
// plan comparisons are deterministic.
func synthSnapshot(nGroups, nodes int, seed int64) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	half := nGroups / 2
	s := &Snapshot{
		NumNodes: nodes,
		Ops: []OpStat{
			{Name: "up", Downstream: []int{1}},
			{Name: "down"},
		},
		MaxMigrations: nGroups,
	}
	for i := 0; i < nGroups; i++ {
		op := 0
		if i >= half {
			op = 1
		}
		s.Ops[op].Groups = append(s.Ops[op].Groups, i)
		s.Groups = append(s.Groups, GroupStat{
			Op: op, Node: i % nodes,
			Load:      1 + 10*rng.Float64(),
			StateSize: 10,
		})
	}
	var comm CommBuilder
	comm.Reset(nGroups)
	for i := 0; i < half; i++ {
		for e := 0; e < 3; e++ {
			comm.Add(i, half+rng.Intn(half), float64(1+rng.Intn(40)))
		}
	}
	s.Comm = comm.Build()
	return s
}

func samePlan(t *testing.T, step string, full, inc *Plan) {
	t.Helper()
	if len(full.GroupNode) != len(inc.GroupNode) {
		t.Fatalf("%s: plan sizes differ: %d vs %d", step, len(full.GroupNode), len(inc.GroupNode))
	}
	for g := range full.GroupNode {
		if full.GroupNode[g] != inc.GroupNode[g] {
			t.Fatalf("%s: plans diverge at group %d: full -> %d, incremental -> %d\nfull: %v\nincr: %v",
				step, g, full.GroupNode[g], inc.GroupNode[g], full.GroupNode, inc.GroupNode)
		}
	}
	if len(full.Moves) != len(inc.Moves) {
		t.Fatalf("%s: move counts differ: %d vs %d", step, len(full.Moves), len(inc.Moves))
	}
}

// TestIncrementalALBICFullCoverageIdentity is the dirty-region correctness
// property: whenever the region covers all groups, the incremental planner
// must produce a plan IDENTICAL to the full planner — same code path, same
// random stream, same assignment. Both full-coverage triggers are exercised:
// the first invocation (no baseline yet) and a period where every group's
// load shifted past the dirty threshold.
func TestIncrementalALBICFullCoverageIdentity(t *testing.T) {
	ctx := context.Background()
	full := &ALBIC{Seed: 11, TimeLimit: converged}
	inc := &ALBIC{Seed: 11, TimeLimit: converged, Incremental: true}

	// Step 1: first invocation — the tracker has no baseline, region is nil.
	s1 := synthSnapshot(10, 3, 21)
	pFull, err := full.Plan(ctx, s1)
	if err != nil {
		t.Fatal(err)
	}
	pInc, err := inc.Plan(ctx, s1)
	if err != nil {
		t.Fatal(err)
	}
	samePlan(t, "first invocation", pFull, pInc)

	// Step 2: every group's load moved 50% — the region covers all groups,
	// which must collapse back to the exact full code path.
	s2 := s1.Clone()
	for k := range s2.Groups {
		s2.Groups[k].Load *= 1.5
	}
	pFull, err = full.Plan(ctx, s2)
	if err != nil {
		t.Fatal(err)
	}
	pInc, err = inc.Plan(ctx, s2)
	if err != nil {
		t.Fatal(err)
	}
	samePlan(t, "all-dirty period", pFull, pInc)
}

// TestIncrementalMILPFullCoverageIdentity: the same property for the pure
// MILP balancer, which shares the dirty tracker but routes frozen load
// through the snapshot's problem builder as fixed background load.
func TestIncrementalMILPFullCoverageIdentity(t *testing.T) {
	ctx := context.Background()
	full := &MILPBalancer{Seed: 3, TimeLimit: converged}
	inc := &MILPBalancer{Seed: 3, TimeLimit: converged, Incremental: true}

	s1 := synthSnapshot(10, 3, 22)
	pFull, err := full.Plan(ctx, s1)
	if err != nil {
		t.Fatal(err)
	}
	pInc, err := inc.Plan(ctx, s1)
	if err != nil {
		t.Fatal(err)
	}
	samePlan(t, "first invocation", pFull, pInc)

	s2 := s1.Clone()
	for k := range s2.Groups {
		s2.Groups[k].Load *= 2
	}
	pFull, err = full.Plan(ctx, s2)
	if err != nil {
		t.Fatal(err)
	}
	pInc, err = inc.Plan(ctx, s2)
	if err != nil {
		t.Fatal(err)
	}
	samePlan(t, "all-dirty period", pFull, pInc)
}

// TestIncrementalSteadyStateFreezesEverything: when no group's load moved
// past the threshold, the region is empty, every group is frozen, and the
// incremental plan is a no-op — the scale win at 16k groups.
func TestIncrementalSteadyStateFreezesEverything(t *testing.T) {
	ctx := context.Background()
	inc := &ALBIC{Seed: 9, TimeLimit: converged, Incremental: true}
	s := synthSnapshot(12, 3, 33)
	if _, err := inc.Plan(ctx, s); err != nil {
		t.Fatal(err)
	}
	// Identical snapshot next period: nothing is dirty.
	plan, err := inc.Plan(ctx, s.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 0 {
		t.Fatalf("steady state must not migrate, got moves %+v", plan.Moves)
	}
	for g, n := range plan.GroupNode {
		if n != s.Groups[g].Node {
			t.Fatalf("group %d reassigned %d -> %d in steady state", g, s.Groups[g].Node, n)
		}
	}
}

// TestIncrementalFrozenGroupsNeverMove: with a partial dirty region, groups
// outside the region (and outside the perturbed groups' communication
// neighborhoods) must keep their placement no matter what the solver does
// with the dirty ones.
func TestIncrementalFrozenGroupsNeverMove(t *testing.T) {
	ctx := context.Background()
	inc := &ALBIC{Seed: 5, TimeLimit: converged, Incremental: true}
	s := synthSnapshot(12, 3, 44)
	if _, err := inc.Plan(ctx, s); err != nil {
		t.Fatal(err)
	}

	// Perturb a single upstream group hard; everything else is unchanged.
	const hot = 2
	s2 := s.Clone()
	s2.Groups[hot].Load *= 5

	// The dirty region is the hot group plus its CSR out-neighborhood.
	allowed := map[int]bool{hot: true}
	cols, _ := s.Comm.Row(hot)
	for _, gj := range cols {
		allowed[int(gj)] = true
	}

	plan, err := inc.Plan(ctx, s2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range plan.Moves {
		if !allowed[m.Group] {
			t.Fatalf("frozen group %d moved %d -> %d (dirty region was %v)",
				m.Group, m.From, m.To, allowed)
		}
	}
}

// TestDirtyTrackerRegion exercises the region computation directly: first
// call and cluster resize force full solves (nil), kill-marked hosts force
// their groups dirty with top priority, and the top-K cap truncates by load
// delta while never dropping forced movers.
func TestDirtyTrackerRegion(t *testing.T) {
	s := synthSnapshot(12, 3, 55)
	var tr dirtyTracker

	if got := tr.region(s, 0, 0); got != nil {
		t.Fatalf("first call must be nil (full solve), got %v", got)
	}
	tr.observe(s)

	// Cluster resize invalidates the baseline.
	s.NumNodes = 4
	if got := tr.region(s, 0, 0); got != nil {
		t.Fatal("cluster resize must force a full solve")
	}
	s.NumNodes = 3

	// Kill-marked node: its groups are dirty regardless of load deltas.
	s.Kill = []bool{false, true, false}
	region := tr.region(s, 0, 0)
	if region == nil {
		t.Fatal("kill-marked subset must not force a full solve here")
	}
	for k, g := range s.Groups {
		if g.Node == 1 && !region[k] {
			t.Fatalf("group %d on kill-marked node not in dirty region", k)
		}
	}
	s.Kill = nil

	// Top-K truncation: several dirty groups, keep the largest delta. Only a
	// subset is perturbed so the region stays partial (a full cover returns
	// nil). No kills and no node changes, so no +Inf priorities survive the
	// cap unconditionally.
	s2 := s.Clone()
	for _, k := range []int{1, 2, 3} {
		s2.Groups[k].Load *= 1.5 // past the 10% threshold
	}
	s2.Groups[0].Load = s.Groups[0].Load * 10
	region = tr.region(s2, 0.1, 1)
	if region == nil {
		t.Fatal("partial region expected")
	}
	count := 0
	for _, d := range region {
		if d {
			count++
		}
	}
	if !region[0] {
		t.Fatal("largest-delta group truncated out of the region")
	}
	if count != 1 {
		t.Fatalf("topK=1 kept %d groups", count)
	}
}
