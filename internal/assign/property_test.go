package assign

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestPropertySolveInvariants drives randomized problems through the
// anytime solver and checks the structural invariants that must hold for
// every input: full assignment, budget compliance, Lemma-1 (no inbound
// moves to kill nodes), pin compliance, and never-worse objective than the
// incumbent allocation.
func TestPropertySolveInvariants(t *testing.T) {
	f := func(seed int64, rawNodes, rawItems uint8, costBudget bool) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 2 + int(rawNodes%9)  // 2..10
		items := 4 + int(rawItems%40) // 4..43
		p := &Problem{NumNodes: nodes}
		for k := 0; k < items; k++ {
			p.Items = append(p.Items, Item{
				Groups:  []int{k},
				Load:    1 + rng.Float64()*20,
				MigCost: 0.5 + rng.Float64()*2,
				Cur:     rng.Intn(nodes),
				Pin:     -1,
			})
		}
		if costBudget {
			p.MaxMigrCost = 1 + rng.Float64()*10
		} else {
			p.MaxMigrations = 1 + rng.Intn(10)
		}
		if nodes > 2 && rng.Intn(2) == 0 {
			p.Kill = make([]bool, nodes)
			p.Kill[rng.Intn(nodes)] = true
		}
		// Occasionally pin an item to an alive node it already occupies
		// (always affordable).
		if rng.Intn(3) == 0 {
			k := rng.Intn(items)
			if p.Kill == nil || !p.Kill[p.Items[k].Cur] {
				p.Items[k].Pin = p.Items[k].Cur
			}
		}

		cur := make([]int, items)
		for k := range cur {
			cur[k] = p.Items[k].Cur
		}
		before := p.Evaluate(cur)

		sol, err := Solve(p, Options{TimeLimit: 5 * time.Millisecond, Seed: seed})
		if err != nil {
			return false
		}
		if len(sol.ItemNode) != items {
			return false
		}
		if !p.WithinBudget(sol.Eval) {
			return false
		}
		for k, node := range sol.ItemNode {
			if node < 0 || node >= nodes {
				return false
			}
			if p.Kill != nil && p.Kill[node] && p.Items[k].Cur != node {
				return false // Lemma 1 violated
			}
			if p.Items[k].Pin >= 0 && node != p.Items[k].Pin {
				return false // pin violated
			}
		}
		// The solver must never return something worse than staying put
		// (staying put is always within budget).
		return sol.Eval.Obj <= before.Obj+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEvaluateConsistency checks algebraic identities of the
// evaluator on random assignments.
func TestPropertyEvaluateConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 2 + rng.Intn(6)
		items := 3 + rng.Intn(20)
		p := &Problem{NumNodes: nodes}
		total := 0.0
		for k := 0; k < items; k++ {
			load := rng.Float64() * 15
			total += load
			p.Items = append(p.Items, Item{
				Groups: []int{k}, Load: load, MigCost: 1,
				Cur: rng.Intn(nodes), Pin: -1,
			})
		}
		assignment := make([]int, items)
		for k := range assignment {
			assignment[k] = rng.Intn(nodes)
		}
		e := p.Evaluate(assignment)
		// Utilization mass conservation.
		sum := 0.0
		for _, u := range e.Util {
			sum += u
		}
		if math.Abs(sum-total) > 1e-6 {
			return false
		}
		// Mean definition with unit capacities.
		if math.Abs(e.Mean-total/float64(nodes)) > 1e-6 {
			return false
		}
		// d dominates both deviations; du, dl are the slacks.
		if e.D+1e-9 < e.MaxOver || e.D+1e-9 < e.MaxUnder || e.D < 0 {
			return false
		}
		if math.Abs(e.Du-(e.D-e.MaxOver)) > 1e-9 || math.Abs(e.Dl-(e.D-e.MaxUnder)) > 1e-9 {
			return false
		}
		// LoadDistance never exceeds d when nothing is killed.
		return e.LoadDistance <= e.D+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyExactNeverWorseThanAnytime: on tiny instances, the exact
// optimum (bruteForce) is a lower bound for the anytime solver's objective.
func TestPropertyExactNeverWorseThanAnytime(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		p := randomProblem(rng, 2+rng.Intn(2), 4+rng.Intn(3))
		_, exact := bruteForce(p)
		if exact == nil {
			t.Fatalf("trial %d: exact: no assignment within budget", trial)
		}
		sol, err := Solve(p, Options{TimeLimit: 20 * time.Millisecond, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if exact.Obj > sol.Eval.Obj+1e-6 {
			t.Fatalf("trial %d: exact obj %v worse than anytime %v", trial, exact.Obj, sol.Eval.Obj)
		}
	}
}
