package assign

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// singleGroupItems makes every key group its own item: loads[k] is its load,
// migCost[k] its migration cost (1 when migCost is nil), cur[k] its node.
func singleGroupItems(loads, migCost []float64, cur []int) []Item {
	items := make([]Item, len(loads))
	for k := range loads {
		mc := 1.0
		if migCost != nil {
			mc = migCost[k]
		}
		items[k] = Item{Load: loads[k], MigCost: mc, Cur: cur[k], Pin: -1}
	}
	return items
}

func simpleProblem(nodes int, loads []float64, cur []int) *Problem {
	return &Problem{
		NumNodes: nodes,
		Items:    singleGroupItems(loads, nil, cur),
	}
}

func TestEvaluateBasics(t *testing.T) {
	// 2 nodes, loads 30+10 on node 0, 20 on node 1. Mean = 30.
	p := simpleProblem(2, []float64{30, 10, 20}, []int{0, 0, 1})
	e := p.Evaluate([]int{0, 0, 1})
	if e.Mean != 30 {
		t.Fatalf("mean = %v, want 30", e.Mean)
	}
	if e.Util[0] != 40 || e.Util[1] != 20 {
		t.Fatalf("util = %v", e.Util)
	}
	if e.D != 10 || e.LoadDistance != 10 {
		t.Fatalf("d = %v loadDist = %v, want 10", e.D, e.LoadDistance)
	}
	if e.MigrCost != 0 || e.Migrations != 0 {
		t.Fatalf("unexpected migration accounting: %+v", e)
	}
	// Moving item 1 (load 10) to node 1 balances perfectly.
	e2 := p.Evaluate([]int{0, 1, 1})
	if e2.D != 0 {
		t.Fatalf("d = %v, want 0", e2.D)
	}
	if e2.Migrations != 1 || e2.MigrCost != 1 {
		t.Fatalf("migrations = %d cost = %v, want 1/1", e2.Migrations, e2.MigrCost)
	}
	if e2.Obj >= e.Obj {
		t.Fatalf("balanced objective %v must beat unbalanced %v", e2.Obj, e.Obj)
	}
}

func TestEvaluateHeterogeneous(t *testing.T) {
	// Node 1 has double capacity: 60 units there is the same utilization as
	// 30 units on node 0.
	p := &Problem{
		NumNodes: 2,
		Capacity: []float64{1, 2},
		Items:    singleGroupItems([]float64{30, 60}, nil, []int{0, 1}),
	}
	e := p.Evaluate([]int{0, 1})
	if e.Util[0] != 30 || e.Util[1] != 30 {
		t.Fatalf("util = %v, want [30 30]", e.Util)
	}
	if e.Mean != 30 {
		t.Fatalf("mean = %v, want 90/3", e.Mean)
	}
	if e.D != 0 {
		t.Fatalf("d = %v, want 0", e.D)
	}
}

func TestEvaluateKillNodes(t *testing.T) {
	// Nodes 0 and 1 hold 30 each; kill-marked node 2 holds two groups of 15.
	p := simpleProblem(4, []float64{30, 30, 15, 15}, []int{0, 1, 2, 2})
	p.NumNodes = 3
	p.Kill = []bool{false, false, true}
	// Mean counts the killed node's load but divides by |A| = 2: 90/2 = 45.
	e := p.Evaluate([]int{0, 1, 2, 2})
	if e.Mean != 45 {
		t.Fatalf("mean = %v, want 45", e.Mean)
	}
	if e.KillLoad != 30 {
		t.Fatalf("killLoad = %v, want 30", e.KillLoad)
	}
	if e.D != 15 {
		// All nodes below mean: d is the max underdeviation of alive nodes.
		t.Fatalf("d = %v, want 15", e.D)
	}
	// Draining one 15 to each alive node yields utils 45/45/0: d = 0
	// (Lemma 2: the minimum d requires a full drain).
	e2 := p.Evaluate([]int{0, 1, 0, 1})
	if e2.KillLoad != 0 {
		t.Fatalf("killLoad = %v, want 0", e2.KillLoad)
	}
	if e2.D != 0 {
		t.Fatalf("d = %v, want 0", e2.D)
	}
	if e2.Obj >= e.Obj {
		t.Fatalf("drained objective %v must beat undrained %v", e2.Obj, e.Obj)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []*Problem{
		{NumNodes: 0},
		{NumNodes: 2, Capacity: []float64{1}},
		{NumNodes: 2, Kill: []bool{true, true}},
		{NumNodes: 2, Items: []Item{{Load: -1, Cur: 0}}},
		{NumNodes: 2, Items: []Item{{Load: 1, Cur: 5}}},
		{NumNodes: 2, Items: []Item{{Load: 1, Cur: -1, Pin: -1}}},
		{NumNodes: 2, Items: []Item{{Load: 1, Cur: 0, Pin: 3}}},
		{NumNodes: 2, Kill: []bool{false, true}, Items: []Item{{Load: 1, Cur: 0, Pin: 1}}},
		{NumNodes: 2, Capacity: []float64{1, 0}},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate() = nil, want error", i)
		}
	}
}

// bruteForce finds the assignment minimizing Evaluate().Obj subject to the
// budget, by exhaustive enumeration.
func bruteForce(p *Problem) (best []int, bestEval *Eval) {
	n := len(p.Items)
	cur := make([]int, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			e := p.Evaluate(cur)
			if !p.WithinBudget(e) {
				return
			}
			if bestEval == nil || e.Obj < bestEval.Obj-1e-12 {
				bestEval = e
				best = append([]int(nil), cur...)
			}
			return
		}
		it := &p.Items[i]
		if it.Pin >= 0 {
			cur[i] = it.Pin
			rec(i + 1)
			return
		}
		for node := 0; node < p.NumNodes; node++ {
			cur[i] = node
			rec(i + 1)
		}
	}
	rec(0)
	return best, bestEval
}

func randomProblem(rng *rand.Rand, nodes, items int) *Problem {
	p := &Problem{NumNodes: nodes}
	loads := make([]float64, items)
	curs := make([]int, items)
	for k := range loads {
		loads[k] = math.Round(rng.Float64()*30) + 1
		curs[k] = rng.Intn(nodes)
	}
	p.Items = singleGroupItems(loads, nil, curs)
	if rng.Intn(2) == 0 {
		p.MaxMigrations = 1 + rng.Intn(items)
	} else {
		p.MaxMigrCost = 1 + float64(rng.Intn(items))
	}
	if nodes > 2 && rng.Intn(3) == 0 {
		p.Kill = make([]bool, nodes)
		p.Kill[rng.Intn(nodes)] = true
	}
	return p
}

func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		p := randomProblem(rng, 2+rng.Intn(2), 4+rng.Intn(3)) // <= 3 nodes, <= 6 items
		_, bfEval := bruteForce(p)
		sol, optimal, err := solveExact(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !optimal {
			t.Fatalf("trial %d: exact solve not proven optimal", trial)
		}
		if math.Abs(sol.Eval.Obj-bfEval.Obj) > 1e-6*(1+math.Abs(bfEval.Obj)) {
			t.Fatalf("trial %d: exact obj %v != brute force %v (d %v vs %v)",
				trial, sol.Eval.Obj, bfEval.Obj, sol.Eval.D, bfEval.D)
		}
	}
}

func TestAnytimeCloseToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var worst float64
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng, 2+rng.Intn(2), 5+rng.Intn(4))
		_, bfEval := bruteForce(p)
		sol, err := Solve(p, Options{TimeLimit: 60 * time.Millisecond, Seed: int64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		gap := sol.Eval.D - bfEval.D
		if gap > worst {
			worst = gap
		}
		// The anytime solver must be feasible and near-optimal on toys.
		if gap > 2.0 {
			t.Fatalf("trial %d: anytime d %v vs optimal %v (gap %v)",
				trial, sol.Eval.D, bfEval.D, gap)
		}
	}
	t.Logf("worst anytime-vs-exact d gap: %.4f", worst)
}

func TestSolverRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		nodes := 3 + rng.Intn(8)
		items := 10 + rng.Intn(40)
		p := randomProblem(rng, nodes, items)
		sol, err := Solve(p, Options{TimeLimit: 20 * time.Millisecond, Seed: int64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !p.WithinBudget(sol.Eval) {
			t.Fatalf("trial %d: budget violated: cost %v/%v migrations %d/%d",
				trial, sol.Eval.MigrCost, p.MaxMigrCost, sol.Eval.Migrations, p.MaxMigrations)
		}
		for idx, node := range sol.ItemNode {
			if node < 0 || node >= p.NumNodes {
				t.Fatalf("trial %d: item %d unassigned", trial, idx)
			}
			// Lemma 1: never migrate load INTO a kill-marked node.
			if p.killed(node) && p.Items[idx].Cur != node {
				t.Fatalf("trial %d: item %d moved to kill node %d", trial, idx, node)
			}
		}
	}
}

// TestKillNodesDrain verifies Lemma 2 behaviour: repeated invocations drain
// kill-marked nodes completely once the budget allows.
func TestKillNodesDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	loads := make([]float64, 60)
	curs := make([]int, 60)
	for k := range loads {
		loads[k] = 5 + rng.Float64()*10
		curs[k] = k % 6
	}
	p := &Problem{
		NumNodes:      6,
		Kill:          []bool{false, false, false, false, true, true},
		Items:         singleGroupItems(loads, nil, curs),
		MaxMigrations: 5,
	}
	for round := 0; round < 20; round++ {
		sol, err := Solve(p, Options{TimeLimit: 15 * time.Millisecond, Seed: int64(round)})
		if err != nil {
			t.Fatal(err)
		}
		// Feed the plan back as the new current allocation.
		for idx, node := range sol.ItemNode {
			p.Items[idx].Cur = node
		}
		if sol.Eval.KillLoad == 0 {
			e := p.Evaluate(sol.ItemNode)
			t.Logf("drained after %d rounds, final load distance %.2f", round+1, e.LoadDistance)
			return
		}
	}
	t.Fatal("kill nodes not drained after 20 rounds with budget 5/round")
}

func TestPinsHonored(t *testing.T) {
	loads := []float64{10, 10, 10, 10}
	p := &Problem{
		NumNodes: 2,
		Items:    singleGroupItems(loads, nil, []int{0, 0, 1, 1}),
	}
	p.Items[2].Pin = 0 // force item 2 onto node 0
	sol, err := Solve(p, Options{TimeLimit: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if sol.ItemNode[2] != 0 {
		t.Fatalf("pin ignored: item 2 on node %d", sol.ItemNode[2])
	}
	// The exact oracle must honor pins too.
	sol, _, err = solveExact(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.ItemNode[2] != 0 {
		t.Fatalf("exact pin ignored: item 2 on node %d", sol.ItemNode[2])
	}
}

func TestPinsOverBudgetError(t *testing.T) {
	loads := []float64{10, 10}
	p := &Problem{
		NumNodes:      2,
		Items:         singleGroupItems(loads, []float64{5, 5}, []int{0, 1}),
		MaxMigrCost:   1,
		MaxMigrations: 0,
	}
	p.Items[0].Pin = 1 // migration cost 5 > budget 1
	if _, err := Solve(p, Options{TimeLimit: 5 * time.Millisecond}); err == nil {
		t.Fatal("want error for pins over budget")
	}
	if _, _, err := solveExact(p); err == nil {
		t.Fatal("want error for pins over budget (exact)")
	}
}

func TestUnitsMigrateTogether(t *testing.T) {
	// One item holding three key groups: it moves as a unit and counts 3
	// migrations.
	p := &Problem{
		NumNodes: 2,
		Items: []Item{
			{Groups: []int{0, 1, 2}, Load: 30, MigCost: 3, Cur: 0, Pin: -1},
			{Groups: []int{3}, Load: 30, MigCost: 1, Cur: 0, Pin: -1},
		},
		MaxMigrations: 3,
	}
	sol, err := Solve(p, Options{TimeLimit: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if sol.ItemNode[0] == sol.ItemNode[1] {
		t.Fatalf("both items on node %d", sol.ItemNode[0])
	}
	if sol.Eval.D != 0 {
		t.Fatalf("d = %v, want 0 (one item per node)", sol.Eval.D)
	}
	// The moved item counts its key groups: 3 for the unit, 1 for the single.
	want := 1
	if sol.ItemNode[0] != 0 {
		want = 3
	}
	if sol.Eval.Migrations != want {
		t.Fatalf("migrations = %d, want %d (plan %v)", sol.Eval.Migrations, want, sol.ItemNode)
	}
}

func TestAnytimeLargeInstanceImproves(t *testing.T) {
	// 60 nodes x 1200 groups (the paper's largest): the solver must reduce a
	// skewed distribution's load distance substantially within a small
	// budget and never violate it.
	rng := rand.New(rand.NewSource(99))
	nodes, groups := 60, 1200
	loads := make([]float64, groups)
	curs := make([]int, groups)
	for k := range loads {
		loads[k] = 3 + rng.Float64()*2
		curs[k] = k % nodes
	}
	// Overload node 0 by stacking extra-heavy groups there.
	for k := 0; k < 20; k++ {
		loads[k*nodes] = 12
		curs[k*nodes] = 0
	}
	p := &Problem{NumNodes: nodes, Items: singleGroupItems(loads, nil, curs), MaxMigrations: 20}
	before := p.Evaluate(curs)
	sol, err := Solve(p, Options{TimeLimit: 150 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Eval.Migrations > 20 {
		t.Fatalf("migrations = %d > 20", sol.Eval.Migrations)
	}
	if sol.Eval.D > before.D*0.5 {
		t.Fatalf("d only improved from %.2f to %.2f", before.D, sol.Eval.D)
	}
}
