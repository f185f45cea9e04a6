package core

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// chainSnapshot builds a two-operator chain (op0 -> op1) with g groups per
// operator spread round-robin over n nodes. If oneToOne, group i of op0
// sends rate 10 to group i of op1 (One-To-One pattern); otherwise traffic is
// spread evenly (Full Partitioning).
func chainSnapshot(n, g int, oneToOne bool) *Snapshot {
	s := &Snapshot{
		NumNodes: n,
		Ops: []OpStat{
			{Name: "up", Downstream: []int{1}},
			{Name: "down"},
		},
		MaxMigrations: 10,
	}
	for i := 0; i < g; i++ {
		s.Ops[0].Groups = append(s.Ops[0].Groups, i)
		s.Groups = append(s.Groups, GroupStat{Op: 0, Node: i % n, Load: 4, StateSize: 100})
	}
	for i := 0; i < g; i++ {
		s.Ops[1].Groups = append(s.Ops[1].Groups, g+i)
		// Offset placement so One-To-One pairs start separated.
		s.Groups = append(s.Groups, GroupStat{Op: 1, Node: (i + 1) % n, Load: 4, StateSize: 100})
	}
	var comm CommBuilder
	comm.Reset(2 * g)
	for i := 0; i < g; i++ {
		if oneToOne {
			comm.Add(i, g+i, 10)
		} else {
			for j := 0; j < g; j++ {
				comm.Add(i, g+j, 10.0/float64(g))
			}
		}
	}
	s.Comm = comm.Build()
	return s
}

func TestSnapshotValidate(t *testing.T) {
	s := chainSnapshot(4, 8, true)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := s.Clone()
	bad.Groups[0].Node = 99
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for bad node")
	}
	bad = s.Clone()
	bad.Groups[0].Op = 1 // listed under op 0 but claims op 1
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for op mismatch")
	}
	bad = s.Clone()
	bad.Comm = chainSnapshot(4, 4, true).Comm // 8 rows for 16 groups
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for a comm matrix of the wrong size")
	}
	bad.Comm = nil // no traffic observed
	if err := bad.Validate(); err != nil {
		t.Fatalf("nil comm: %v", err)
	}
}

func TestSnapshotCloneIsDeep(t *testing.T) {
	s := chainSnapshot(2, 4, true)
	s.Kill = []bool{false, true}
	s.Capacity = []float64{1, 2}
	c := s.Clone()
	c.Groups[0].Node = 1
	c.Kill[0] = true
	c.Capacity[0] = 9
	c.Ops[0].Groups[0] = 77
	if s.Groups[0].Node == 1 || s.Kill[0] || s.Capacity[0] == 9 ||
		s.Ops[0].Groups[0] == 77 {
		t.Fatal("Clone must be deep")
	}
	// Comm rates are shared as an immutable CSR instead of deep-copied.
	if c.Comm != s.Comm {
		t.Fatal("clone must share the immutable comm CSR")
	}
	if got := c.Comm.Rate(0, 4); got != 10 {
		t.Fatalf("clone rate(0,4) = %v, want 10", got)
	}
}

func TestLoadDistanceAndAverage(t *testing.T) {
	for _, tc := range []struct {
		name          string
		s             *Snapshot
		dist, average float64
	}{
		{
			// Utilizations 60 and 40, mean 50.
			name: "homogeneous",
			s: &Snapshot{
				NumNodes: 2,
				Ops:      []OpStat{{Name: "o", Groups: []int{0, 1}}},
				Groups: []GroupStat{
					{Op: 0, Node: 0, Load: 60},
					{Op: 0, Node: 1, Load: 40},
				},
			},
			dist: 10, average: 50,
		},
		{
			// Capacities 1, 2, 0.5; node 2 is marked for removal but still
			// holds load 6. Utilizations: 54/1 = 54, (40+20)/2 = 30 and
			// 6/0.5 = 12. The mean counts every node's load over the alive
			// capacity: (54+60+6)/(1+2) = 40 (not 114/3 = 38). The distance
			// is taken over the alive nodes only: max(|54−40|, |30−40|) = 14
			// (node 2's |12−40| = 28 does not count). The average is over the
			// alive utilizations: (54+30)/2 = 42.
			name: "heterogeneous with a kill-marked node",
			s: &Snapshot{
				NumNodes: 3,
				Capacity: []float64{1, 2, 0.5},
				Kill:     []bool{false, false, true},
				Ops:      []OpStat{{Name: "o", Groups: []int{0, 1, 2, 3}}},
				Groups: []GroupStat{
					{Op: 0, Node: 0, Load: 54},
					{Op: 0, Node: 1, Load: 40},
					{Op: 0, Node: 1, Load: 20},
					{Op: 0, Node: 2, Load: 6},
				},
			},
			dist: 14, average: 42,
		},
	} {
		if d := tc.s.LoadDistance(); d != tc.dist {
			t.Errorf("%s: load distance = %v, want %v", tc.name, d, tc.dist)
		}
		if a := tc.s.AverageLoad(); a != tc.average {
			t.Errorf("%s: avg = %v, want %v", tc.name, a, tc.average)
		}
	}
}

// TestValuationAllocsDoNotGrowWithGroups: building the problem and valuing an
// allocation cost a fixed number of allocations, none per key group.
func TestValuationAllocsDoNotGrowWithGroups(t *testing.T) {
	allocs := func(groupsPerOp int) (evaluate, problem float64) {
		s := chainSnapshot(4, groupsPerOp, true)
		cur := currentAssignment(s)
		evaluate = testing.AllocsPerRun(20, func() { Evaluate(s, cur) })
		problem = testing.AllocsPerRun(20, func() { s.Problem() })
		return evaluate, problem
	}
	e40, p40 := allocs(20)
	e400, p400 := allocs(200)
	if e40 != e400 || p40 != p400 {
		t.Fatalf("allocations grow with the groups: Evaluate %v at 40, %v at 400; Problem %v at 40, %v at 400", e40, e400, p40, p400)
	}
}

func TestCollocationFactor(t *testing.T) {
	s := chainSnapshot(4, 8, true)
	// Offset placement: nothing collocated initially.
	if cf := s.CollocationFactor(); cf != 0 {
		t.Fatalf("initial collocation = %v, want 0", cf)
	}
	// Align op1 groups with op0 partners.
	perfect := make([]int, len(s.Groups))
	for i := 0; i < 8; i++ {
		perfect[i] = i % 4
		perfect[8+i] = i % 4
	}
	if cf := CollocationOf(s, perfect); cf != 100 {
		t.Fatalf("aligned collocation = %v, want 100", cf)
	}
}

func TestMILPBalancerBalances(t *testing.T) {
	// All op0 groups stacked on node 0; MILP should spread them.
	s := chainSnapshot(4, 8, false)
	for i := range s.Groups {
		s.Groups[i].Node = 0
	}
	before := s.LoadDistance()
	b := &MILPBalancer{TimeLimit: 30 * time.Millisecond}
	plan, err := b.Plan(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) == 0 || len(plan.Moves) > 10 {
		t.Fatalf("moves = %d, want 1..10 (budget)", len(plan.Moves))
	}
	if plan.Eval.LoadDistance >= before {
		t.Fatalf("load distance %v did not improve on %v", plan.Eval.LoadDistance, before)
	}
	// Plan's group assignment must cover every group exactly once.
	if len(plan.GroupNode) != len(s.Groups) {
		t.Fatalf("plan covers %d groups, want %d", len(plan.GroupNode), len(s.Groups))
	}
}

func TestNoopBalancer(t *testing.T) {
	s := chainSnapshot(3, 6, true)
	plan, err := (NoopBalancer{}).Plan(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 0 {
		t.Fatalf("noop moved %d groups", len(plan.Moves))
	}
}

// applyPlan feeds a plan back into the snapshot as the new current
// allocation (what the engine's migrator does).
func applyPlan(s *Snapshot, plan *Plan) {
	for k, node := range plan.GroupNode {
		s.Groups[k].Node = node
	}
}

func TestALBICImprovesCollocationGradually(t *testing.T) {
	s := chainSnapshot(4, 8, true)
	a := &ALBIC{TimeLimit: 20 * time.Millisecond, Seed: 7}
	prev := s.CollocationFactor()
	best := prev
	for round := 0; round < 30; round++ {
		plan, err := a.Plan(context.Background(), s)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		applyPlan(s, plan)
		cf := s.CollocationFactor()
		if cf > best {
			best = cf
		}
		if ld := s.LoadDistance(); ld > 10+1e-9 {
			t.Fatalf("round %d: load distance %v exceeds maxLD", round, ld)
		}
	}
	if best < 75 {
		t.Fatalf("collocation only reached %v after 30 rounds, want >= 75", best)
	}
	t.Logf("collocation reached %.1f", best)
}

func TestALBICRespectsMigrationBudget(t *testing.T) {
	s := chainSnapshot(4, 12, true)
	s.MaxMigrations = 3
	a := &ALBIC{TimeLimit: 15 * time.Millisecond, Seed: 1}
	for round := 0; round < 10; round++ {
		plan, err := a.Plan(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Moves) > 3 {
			t.Fatalf("round %d: %d moves > budget 3", round, len(plan.Moves))
		}
		applyPlan(s, plan)
	}
}

func TestALBICPartitionsSplitUnderMaxPL(t *testing.T) {
	// Two heavy groups collocated and communicating: their set load (40)
	// exceeds maxPL=25, so ALBIC must split them into separate partitions
	// (which then degenerate to singletons) rather than lock them together.
	s := &Snapshot{
		NumNodes: 2,
		Ops: []OpStat{
			{Name: "up", Groups: []int{0, 1}, Downstream: []int{1}},
			{Name: "down", Groups: []int{2, 3}},
		},
		Groups: []GroupStat{
			{Op: 0, Node: 0, Load: 20, StateSize: 10},
			{Op: 0, Node: 1, Load: 20, StateSize: 10},
			{Op: 1, Node: 0, Load: 20, StateSize: 10},
			{Op: 1, Node: 1, Load: 20, StateSize: 10},
		},
		Comm: commOf(4, []edge{
			{0, 2, 50}, // collocated heavy pair on node 0
			{1, 3, 50}, // collocated heavy pair on node 1
		}),
		MaxMigrations: 4,
	}
	a := &ALBIC{TimeLimit: 15 * time.Millisecond, Seed: 3}
	plan, err := a.Plan(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	// Whatever the plan, the load must stay balanced (each node 40).
	if plan.Eval.LoadDistance > 10 {
		t.Fatalf("load distance %v > maxLD", plan.Eval.LoadDistance)
	}
}

func TestFrameworkTerminatesEmptyKillNodes(t *testing.T) {
	s := chainSnapshot(4, 8, false)
	s.Kill = []bool{false, false, false, true}
	// Move everything off node 3.
	for i := range s.Groups {
		if s.Groups[i].Node == 3 {
			s.Groups[i].Node = 0
		}
	}
	f := &Framework{Balancer: &MILPBalancer{TimeLimit: 20 * time.Millisecond}}
	out, err := f.Step(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Terminate) != 1 || out.Terminate[0] != 3 {
		t.Fatalf("terminate = %v, want [3]", out.Terminate)
	}
}

func TestFrameworkIntegratedScaleIn(t *testing.T) {
	// Scaler marks node 2; the re-plan must start draining it within the
	// same step (integrated decision).
	s := chainSnapshot(3, 9, false)
	s.MaxMigrations = 4
	f := &Framework{
		Balancer: &MILPBalancer{TimeLimit: 20 * time.Millisecond},
		Scaler:   &manualScaler{Script: []ScaleDecision{{MarkForRemoval: []int{2}}}},
	}
	out, err := f.Step(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Scale.MarkForRemoval) != 1 {
		t.Fatalf("scale = %+v", out.Scale)
	}
	movedOff2 := 0
	for _, m := range out.Plan.Moves {
		if m.From == 2 {
			movedOff2++
		}
		if m.To == 2 {
			t.Fatalf("plan moved group %d TO the kill-marked node", m.Group)
		}
	}
	if movedOff2 == 0 {
		t.Fatal("integrated plan did not start draining the marked node")
	}
}

func TestFrameworkScaleOutReplans(t *testing.T) {
	s := chainSnapshot(2, 8, false)
	// Heavy overload: every group load 30 -> total 480 over 2 nodes.
	for i := range s.Groups {
		s.Groups[i].Load = 30
	}
	s.MaxMigrations = 6
	f := &Framework{
		Balancer: &MILPBalancer{TimeLimit: 20 * time.Millisecond},
		Scaler:   &UtilizationScaler{TargetUtil: 70, HighWater: 90, LowWater: 40},
	}
	out, err := f.Step(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Scale.AddNodes == 0 {
		t.Fatal("expected scale-out")
	}
	if out.NumNodes != 2+out.Scale.AddNodes {
		t.Fatalf("NumNodes = %d", out.NumNodes)
	}
	usedNew := false
	for _, n := range out.Plan.GroupNode {
		if n >= 2 {
			usedNew = true
		}
	}
	if !usedNew {
		t.Fatal("re-plan ignored the new nodes")
	}
}

func TestUtilizationScalerNoActionInBand(t *testing.T) {
	s := chainSnapshot(4, 8, false)
	for i := range s.Groups {
		s.Groups[i].Load = 17.5 // 16 groups x 17.5 = 280 total = 70 per node
	}
	plan, _ := (NoopBalancer{}).Plan(context.Background(), s)
	dec := (&UtilizationScaler{}).Decide(s, plan)
	if !dec.IsZero() {
		t.Fatalf("unexpected scaling: %+v", dec)
	}
}

func TestUtilizationScalerScaleIn(t *testing.T) {
	// 8 groups of load 10 over 2 nodes: mean 40 < low water 45; one node
	// can hold all 80 below the 90 high water, so one node is marked.
	s := chainSnapshot(2, 4, false)
	for i := range s.Groups {
		s.Groups[i].Load = 10
	}
	plan, _ := (NoopBalancer{}).Plan(context.Background(), s)
	dec := (&UtilizationScaler{TargetUtil: 85, HighWater: 90, LowWater: 45, MinNodes: 1}).Decide(s, plan)
	if len(dec.MarkForRemoval) != 1 {
		t.Fatalf("decision = %+v, want 1 node marked", dec)
	}
}

func TestUtilizationScalerScaleInGuard(t *testing.T) {
	// Heterogeneous cluster: mean is below low water so scale-in is
	// considered, but removing the least-utilized node (the big one) would
	// push the small survivor over the high water. The guard must cancel.
	s := &Snapshot{
		NumNodes: 2,
		Capacity: []float64{1, 0.5},
		Ops:      []OpStat{{Name: "o", Groups: []int{0, 1, 2, 3}}},
		Groups: []GroupStat{
			{Op: 0, Node: 0, Load: 13},
			{Op: 0, Node: 0, Load: 10},
			{Op: 0, Node: 1, Load: 11.5},
			{Op: 0, Node: 1, Load: 11.5},
		},
	}
	// Utils: node0 = 23, node1 = 46; total 46; mean = 46/1.5 ≈ 30.7 < 50.
	// needed = ceil(46/85) = 1 < 2 alive, so removal is attempted; removing
	// node 0 leaves capacity 0.5 -> predicted 92 > 90: guard cancels.
	plan, _ := (NoopBalancer{}).Plan(context.Background(), s)
	dec := (&UtilizationScaler{TargetUtil: 85, HighWater: 90, LowWater: 50, MinNodes: 1}).Decide(s, plan)
	if len(dec.MarkForRemoval) != 0 {
		t.Fatalf("guard failed: %+v", dec)
	}
}

func TestSnapshotProblemRoundTrip(t *testing.T) {
	s := chainSnapshot(3, 6, true)
	p := s.Problem()
	if len(p.Items) != len(s.Groups) {
		t.Fatalf("items = %d, want %d", len(p.Items), len(s.Groups))
	}
	for k, it := range p.Items {
		if it.Cur != s.Groups[k].Node {
			t.Fatalf("item %d cur mismatch", k)
		}
		if it.MigCost != s.Groups[k].StateSize {
			t.Fatalf("item %d migcost = %v", k, it.MigCost)
		}
	}
}

// TestMILPBalancerHonorsContext: the solve stops at ctx, not only at its
// TimeLimit. A context cancelled before Plan leaves the starting assignment —
// a valid plan with no moves (the anytime solver degrades, it does not fail) —
// while the same snapshot under a live context, with the TimeLimit a ceiling
// only, has moves to make: the empty plan is the context's doing. No clock
// decides the test.
func TestMILPBalancerHonorsContext(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := &Snapshot{NumNodes: 12, Ops: []OpStat{{Name: "op"}}}
	for k := 0; k < 600; k++ {
		s.Groups = append(s.Groups, GroupStat{Op: 0, Node: rng.Intn(12), Load: rng.Float64() * 5})
		s.Ops[0].Groups = append(s.Ops[0].Groups, k)
	}
	b := &MILPBalancer{TimeLimit: 30 * time.Second, Seed: 1}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan, err := b.Plan(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.GroupNode) != len(s.Groups) {
		t.Fatalf("plan has %d groups, want %d", len(plan.GroupNode), len(s.Groups))
	}
	for k, n := range plan.GroupNode {
		if n != s.Groups[k].Node {
			t.Fatalf("cancelled solve sends group %d from node %d to %d", k, s.Groups[k].Node, n)
		}
	}
	if len(plan.Moves) != 0 {
		t.Fatalf("cancelled solve made %d moves", len(plan.Moves))
	}

	live, err := b.Plan(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Moves) == 0 {
		t.Fatal("a live solve made no moves: the snapshot gives a cancelled one nothing to skip")
	}
}
