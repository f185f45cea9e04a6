package assign

import (
	"testing"
	"time"
)

// TestFixedEquivalentToPinnedItems: background load declared via
// Problem.Fixed must valuate exactly like the same load materialized as a
// pinned, non-migrating item — Fixed is a representation optimization for
// incremental planning, not a semantic change.
func TestFixedEquivalentToPinnedItems(t *testing.T) {
	movable := []Item{
		{Groups: []int{0}, Load: 10, MigCost: 1, Cur: 0, Pin: -1},
		{Groups: []int{1}, Load: 20, MigCost: 1, Cur: 1, Pin: -1},
	}
	withFixed := &Problem{
		NumNodes: 3,
		Items:    movable,
		Fixed:    []float64{30, 0, 15},
	}
	asItems := &Problem{
		NumNodes: 3,
		Items: append([]Item{
			{Groups: []int{100}, Load: 30, MigCost: 1, Cur: 0, Pin: 0},
			{Groups: []int{101}, Load: 15, MigCost: 1, Cur: 2, Pin: 2},
		}, movable...),
	}
	if m1, m2 := withFixed.Mean(), asItems.Mean(); m1 != m2 {
		t.Fatalf("Mean = %v with Fixed, %v with pinned items", m1, m2)
	}
	e1 := withFixed.Evaluate([]int{2, 1})
	e2 := asItems.Evaluate([]int{0, 2, 2, 1})
	for i := range e1.Util {
		if e1.Util[i] != e2.Util[i] {
			t.Fatalf("Util[%d] = %v with Fixed, %v with pinned items", i, e1.Util[i], e2.Util[i])
		}
	}
	if e1.D != e2.D || e1.LoadDistance != e2.LoadDistance || e1.Obj != e2.Obj {
		t.Fatalf("eval differs: D %v/%v, LD %v/%v, Obj %v/%v",
			e1.D, e2.D, e1.LoadDistance, e2.LoadDistance, e1.Obj, e2.Obj)
	}
	if e1.MigrCost != e2.MigrCost || e1.Migrations != e2.Migrations {
		t.Fatalf("migration accounting differs: %v/%d vs %v/%d",
			e1.MigrCost, e1.Migrations, e2.MigrCost, e2.Migrations)
	}
}

// TestSolversSeeBackgroundLoad: the solver and the exact oracle must steer
// movable items away from nodes carrying heavy frozen background load.
func TestSolversSeeBackgroundLoad(t *testing.T) {
	mk := func() *Problem {
		return &Problem{
			NumNodes: 2,
			Items: []Item{
				{Groups: []int{0}, Load: 10, MigCost: 1, Cur: 0, Pin: -1},
			},
			Fixed: []float64{100, 0},
		}
	}
	for _, tc := range []struct {
		name  string
		solve func(*Problem) (*Solution, error)
	}{
		{"anytime", func(p *Problem) (*Solution, error) {
			return Solve(p, Options{TimeLimit: 20 * time.Millisecond, Seed: 1})
		}},
		{"exact", func(p *Problem) (*Solution, error) {
			sol, _, err := solveExact(p)
			return sol, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sol, err := tc.solve(mk())
			if err != nil {
				t.Fatal(err)
			}
			if sol.ItemNode[0] != 1 {
				t.Fatalf("item left on the node with 100 background load (util %v)", sol.Eval.Util)
			}
		})
	}
}

// TestFixedValidate: malformed background-load vectors are rejected.
func TestFixedValidate(t *testing.T) {
	base := func() *Problem {
		return &Problem{NumNodes: 2, Items: []Item{{Load: 1, Cur: 0, Pin: -1}}}
	}
	p := base()
	p.Fixed = []float64{1}
	if err := p.Validate(); err == nil {
		t.Fatal("short Fixed vector accepted")
	}
	p = base()
	p.Fixed = []float64{0, -1}
	if err := p.Validate(); err == nil {
		t.Fatal("negative fixed load accepted")
	}
	p = base()
	p.Fixed = []float64{0, 5}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}
