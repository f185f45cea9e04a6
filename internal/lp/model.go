// Package lp implements a small linear-programming toolkit: a dense
// two-phase primal simplex solver and a branch-and-bound mixed-integer
// solver on top of it.
//
// It is the exact oracle for the integrated load-balancing MILP (Section
// 4.3.1) that the paper solves with IBM CPLEX: only internal/assign's tests
// import it, to hold the anytime solver that plans every run to the proven
// optimum on small instances. It is intended for small and medium models (up
// to a few thousand variables).
package lp

import (
	"fmt"
	"math"
)

// Sense is the direction of a constraint row.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // <=
	GE              // >=
	EQ              // ==
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Inf is the bound value used for "unbounded".
var Inf = math.Inf(1)

// Variable describes one decision variable.
type Variable struct {
	Name    string
	Lo, Hi  float64 // bounds; Lo may be -Inf, Hi may be +Inf
	Integer bool    // integrality requirement (used by MILP solver)
	Obj     float64 // objective coefficient
}

// Constraint is a linear row: sum(Coef[j] * x[Var[j]]) Sense RHS.
type Constraint struct {
	Name  string
	Vars  []int
	Coefs []float64
	Sense Sense
	RHS   float64
}

// Model is a linear (or mixed-integer) program. The objective is always
// minimized; callers maximizing should negate coefficients.
type Model struct {
	Vars []Variable
	Cons []Constraint
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// AddVar appends a continuous variable and returns its index.
func (m *Model) AddVar(name string, lo, hi, obj float64) int {
	m.Vars = append(m.Vars, Variable{Name: name, Lo: lo, Hi: hi, Obj: obj})
	return len(m.Vars) - 1
}

// AddIntVar appends an integer variable and returns its index.
func (m *Model) AddIntVar(name string, lo, hi, obj float64) int {
	m.Vars = append(m.Vars, Variable{Name: name, Lo: lo, Hi: hi, Obj: obj, Integer: true})
	return len(m.Vars) - 1
}

// AddBinVar appends a binary variable and returns its index.
func (m *Model) AddBinVar(name string, obj float64) int {
	return m.AddIntVar(name, 0, 1, obj)
}

// AddCons appends a constraint row and returns its index.
func (m *Model) AddCons(name string, vars []int, coefs []float64, s Sense, rhs float64) int {
	if len(vars) != len(coefs) {
		panic(fmt.Sprintf("lp: constraint %q has %d vars but %d coefs", name, len(vars), len(coefs)))
	}
	m.Cons = append(m.Cons, Constraint{Name: name, Vars: vars, Coefs: coefs, Sense: s, RHS: rhs})
	return len(m.Cons) - 1
}

// Validate reports structural problems with the model.
func (m *Model) Validate() error {
	for i, v := range m.Vars {
		if v.Lo > v.Hi {
			return fmt.Errorf("lp: variable %d (%s) has lo %g > hi %g", i, v.Name, v.Lo, v.Hi)
		}
		if math.IsNaN(v.Lo) || math.IsNaN(v.Hi) || math.IsNaN(v.Obj) {
			return fmt.Errorf("lp: variable %d (%s) has NaN bound or objective", i, v.Name)
		}
	}
	for i, c := range m.Cons {
		if len(c.Vars) != len(c.Coefs) {
			return fmt.Errorf("lp: constraint %d (%s) vars/coefs length mismatch", i, c.Name)
		}
		for _, j := range c.Vars {
			if j < 0 || j >= len(m.Vars) {
				return fmt.Errorf("lp: constraint %d (%s) references variable %d (have %d)", i, c.Name, j, len(m.Vars))
			}
		}
		if math.IsNaN(c.RHS) {
			return fmt.Errorf("lp: constraint %d (%s) has NaN rhs", i, c.Name)
		}
	}
	return nil
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
	TimeLimit // MILP: stopped at the deadline with the best incumbent so far
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case TimeLimit:
		return "time-limit"
	}
	return "unknown"
}

// Solution holds the result of a solve.
type Solution struct {
	Status Status
	X      []float64 // variable values (valid when Status is Optimal or TimeLimit with incumbent)
	Obj    float64   // objective value
	// Gap is the relative MILP optimality gap (0 for proven optimal, NaN for
	// pure LP solves).
	Gap float64
}

// Value returns the value of variable j in the solution.
func (s *Solution) Value(j int) float64 {
	if s == nil || j < 0 || j >= len(s.X) {
		return math.NaN()
	}
	return s.X[j]
}

// Eval computes the objective value of x under the model.
func (m *Model) Eval(x []float64) float64 {
	obj := 0.0
	for j, v := range m.Vars {
		obj += v.Obj * x[j]
	}
	return obj
}

// Feasible reports whether x satisfies all constraints and bounds within tol.
func (m *Model) Feasible(x []float64, tol float64) bool {
	if len(x) != len(m.Vars) {
		return false
	}
	for j, v := range m.Vars {
		if x[j] < v.Lo-tol || x[j] > v.Hi+tol {
			return false
		}
		if v.Integer && math.Abs(x[j]-math.Round(x[j])) > tol {
			return false
		}
	}
	for _, c := range m.Cons {
		lhs := 0.0
		for i, j := range c.Vars {
			lhs += c.Coefs[i] * x[j]
		}
		switch c.Sense {
		case LE:
			if lhs > c.RHS+tol {
				return false
			}
		case GE:
			if lhs < c.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}
