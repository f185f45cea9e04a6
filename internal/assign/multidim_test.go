package assign

import (
	"math/rand"
	"testing"
	"time"
)

// multiDimProblem: two nodes, balanced bottleneck loads, but all the
// memory-hungry items sit where the balancer would love to pile more load.
func multiDimProblem() *Problem {
	return &Problem{
		NumNodes: 2,
		AuxLimit: []float64{50}, // memory cap: 50pp per node
		Items: []Item{
			// Node 0: light CPU, heavy memory.
			{Groups: []int{0}, Load: 10, MigCost: 1, Cur: 0, Pin: -1, Aux: []float64{40}},
			{Groups: []int{1}, Load: 10, MigCost: 1, Cur: 0, Pin: -1, Aux: []float64{5}},
			// Node 1: heavy CPU, light memory.
			{Groups: []int{2}, Load: 30, MigCost: 1, Cur: 1, Pin: -1, Aux: []float64{5}},
			{Groups: []int{3}, Load: 30, MigCost: 1, Cur: 1, Pin: -1, Aux: []float64{40}},
		},
		MaxMigrations: 4,
	}
}

func TestMultiDimEvaluate(t *testing.T) {
	p := multiDimProblem()
	e := p.Evaluate([]int{0, 0, 1, 1})
	if e.AuxUtil == nil || len(e.AuxUtil) != 1 {
		t.Fatalf("aux util missing: %+v", e.AuxUtil)
	}
	if e.AuxUtil[0][0] != 45 || e.AuxUtil[0][1] != 45 {
		t.Fatalf("aux util = %v, want [45 45]", e.AuxUtil[0])
	}
	if e.AuxViolation != 0 {
		t.Fatalf("violation = %v, want 0", e.AuxViolation)
	}
	// Piling both memory hogs on node 0 (40+5+40 = 85) violates by 35.
	e = p.Evaluate([]int{0, 0, 1, 0})
	if e.AuxViolation < 34.9 || e.AuxViolation > 35.1 {
		t.Fatalf("violation = %v, want 35", e.AuxViolation)
	}
}

func TestMultiDimSolverRespectsLimits(t *testing.T) {
	// CPU balance wants a 40-load item moved to node 0, but both candidate
	// moves that fix CPU perfectly would blow the memory cap; the solver
	// must pick the memory-light item (group 2).
	p := multiDimProblem()
	sol, err := Solve(p, Options{TimeLimit: 20 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Eval.AuxViolation != 0 {
		t.Fatalf("solver created aux violation %v (assign %v)",
			sol.Eval.AuxViolation, sol.ItemNode)
	}
	// CPU must improve: initial d = 20; moving group 2 (load 30, mem 5) to
	// node 0 gives utils 50/30 -> d = 10; swapping 2<->1 gives 40/40 -> 0.
	if sol.Eval.D > 10+1e-9 {
		t.Fatalf("d = %v; solver failed to balance within memory limits", sol.Eval.D)
	}
}

func TestMultiDimExactRespectsLimits(t *testing.T) {
	p := multiDimProblem()
	sol, _, err := solveExact(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Eval.AuxViolation != 0 {
		t.Fatalf("exact solution violates aux limits: %v", sol.Eval.AuxViolation)
	}
	if sol.Eval.D > 10+1e-9 {
		t.Fatalf("exact d = %v", sol.Eval.D)
	}
}

func TestMultiDimValidate(t *testing.T) {
	p := multiDimProblem()
	p.AuxLimit[0] = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative aux limit must be rejected")
	}
	p = multiDimProblem()
	p.Items[0].Aux = []float64{1, 2} // more resources than declared
	if err := p.Validate(); err == nil {
		t.Fatal("excess aux entries must be rejected")
	}
	p = multiDimProblem()
	p.Items[0].Aux = []float64{-3}
	if err := p.Validate(); err == nil {
		t.Fatal("negative aux usage must be rejected")
	}
}

// TestMultiDimPropertyNoNewViolations: starting from random (possibly
// violating) states, the solver never increases the total violation.
func TestMultiDimPropertyNoNewViolations(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		nodes := 2 + rng.Intn(4)
		items := 6 + rng.Intn(14)
		p := &Problem{
			NumNodes:      nodes,
			AuxLimit:      []float64{30 + rng.Float64()*40},
			MaxMigrations: 1 + rng.Intn(6),
		}
		for k := 0; k < items; k++ {
			p.Items = append(p.Items, Item{
				Groups:  []int{k},
				Load:    1 + rng.Float64()*15,
				MigCost: 1,
				Cur:     rng.Intn(nodes),
				Pin:     -1,
				Aux:     []float64{rng.Float64() * 20},
			})
		}
		cur := make([]int, items)
		for k := range cur {
			cur[k] = p.Items[k].Cur
		}
		before := p.Evaluate(cur)
		sol, err := Solve(p, Options{TimeLimit: 8 * time.Millisecond, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Eval.AuxViolation > before.AuxViolation+1e-6 {
			t.Fatalf("trial %d: violation grew %v -> %v",
				trial, before.AuxViolation, sol.Eval.AuxViolation)
		}
	}
}
