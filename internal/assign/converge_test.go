package assign

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
)

// convergeLimit is far above what any instance below needs to converge (a
// few milliseconds), so these solves end on the convergence stop, never on
// the clock, even under the race detector on a loaded machine.
const convergeLimit = 5 * time.Second

// testFamilies rebuilds the random instances of TestAnytimeCloseToExact
// ("toy", 2-3 nodes) and TestSolverRespectsBudget ("budget", 3-10 nodes,
// 10-49 items), in those tests' order and with their seeds.
func testFamilies() map[string][]*Problem {
	fam := map[string][]*Problem{}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		fam["toy"] = append(fam["toy"], randomProblem(rng, 2+rng.Intn(2), 5+rng.Intn(4)))
	}
	rng = rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		nodes := 3 + rng.Intn(8)
		items := 10 + rng.Intn(40)
		fam["budget"] = append(fam["budget"], randomProblem(rng, nodes, items))
	}
	return fam
}

// deadlineBoundD is Eval.D of the solver this one replaced — the same search
// without a convergence stop, spinning until its deadline — on testFamilies
// with TimeLimit 150 ms and Seed = trial, recorded at the parent commit on a
// 2-vCPU VM. 150 ms is 2.5 to 7 times what the tests give those instances,
// so it is the best that solver was seen to do on them.
var deadlineBoundD = map[string][]float64{
	"toy": {
		0.500000, 1.500000, 1.000000, 2.000000, 1.000000, 0.666667, 3.000000, 0.500000, 0.000000, 0.000000,
		6.500000, 2.000000, 0.500000, 0.000000, 24.000000, 0.666667, 3.666667, 0.500000, 0.500000, 0.000000,
		1.500000, 0.500000, 1.000000, 0.500000, 2.000000, 1.500000, 2.000000, 6.333333, 10.000000, 2.666667,
	},
	"budget": {
		64.166667, 3.222222, 0.500000, 20.750000, 0.600000, 1.800000, 1.250000, 0.000000, 0.750000, 1.555556,
		1.333333, 2.142857, 0.625000, 2.666667, 3.333333, 1.400000, 10.625000, 6.333333, 0.833333, 2.333333,
		0.833333, 7.714286, 1.000000, 2.500000, 62.833333, 0.555556, 0.666667, 0.750000, 0.000000, 10.444444,
		0.714286, 13.800000, 42.142857, 2.250000, 0.000000, 2.666667, 0.750000, 1.800000, 2.142857, 10.000000,
	},
}

// TestConvergedNoWorseThanDeadlineBound: stopping on convergence instead of
// on the deadline costs no plan quality on the instances the package's tests
// are built on. This is what lnsPatience was chosen by. That every solve
// converged is checked without a clock: a converged solve is a function of
// problem and seed, so the same solve under a deadline twenty times later
// returns the same solution, where one cut by its deadline would as a rule
// have gone on to another.
func TestConvergedNoWorseThanDeadlineBound(t *testing.T) {
	for name, problems := range testFamilies() {
		for trial, p := range problems {
			sol, err := Solve(p, Options{TimeLimit: convergeLimit, Seed: int64(trial)})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, trial, err)
			}
			later, err := Solve(p, Options{TimeLimit: 20 * convergeLimit, Seed: int64(trial)})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, trial, err)
			}
			if !reflect.DeepEqual(sol, later) {
				t.Errorf("%s/%d: the solve differs from the same solve under a later deadline: it did not converge", name, trial)
			}
			// The recorded values carry six decimals.
			if want := deadlineBoundD[name][trial]; sol.Eval.D > want+1e-6 {
				t.Errorf("%s/%d: converged d = %.6f, deadline-bound solver reached %.6f", name, trial, sol.Eval.D, want)
			}
		}
	}
}

// TestConvergedSolveIsDeterministic: a solve that converges before its
// deadline is a function of problem and seed alone — not of the clock, the
// scheduler or the core count.
func TestConvergedSolveIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	problems := []*Problem{
		randomProblem(rng, 8, 64),
		randomProblem(rng, 5, 30),
		randomProblem(rng, 12, 90),
	}
	for i, p := range problems {
		var first *Solution
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			for run := 0; run < 10; run++ {
				sol, err := Solve(p, Options{TimeLimit: convergeLimit, Seed: 9})
				if err != nil {
					runtime.GOMAXPROCS(prev)
					t.Fatalf("problem %d: %v", i, err)
				}
				if first == nil {
					first = sol
				} else if !reflect.DeepEqual(first, sol) {
					t.Errorf("problem %d, GOMAXPROCS %d, run %d: solution differs from the first run's", i, procs, run)
				}
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// TestExpiredDeadlineReturnsStart: the budget is a ceiling for every pass,
// not only for the repacking one. A solve whose deadline passed before it
// began returns its starting assignment, although all items sit on one node
// of four and a single greedy move would improve on that.
func TestExpiredDeadlineReturnsStart(t *testing.T) {
	loads := []float64{40, 30, 20, 20, 10, 10, 5, 5}
	start := make([]int, len(loads))
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	sol, err := SolveCtx(ctx, simpleProblem(4, loads, start), Options{TimeLimit: convergeLimit, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sol.ItemNode, start) {
		t.Fatalf("expired solve returned %v, want its starting assignment %v", sol.ItemNode, start)
	}
}
