package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
)

// solverQuality reproduces Figures 2-4: load distance achieved by the MILP
// at several solver budgets versus Flux, as the synthetic imbalance
// ("varies") grows, for four migration limits.
//
// The paper's CPLEX budgets of 5/10/30/60 seconds are scaled to
// milliseconds: the anytime solver reaches CPLEX-comparable quality on
// these instance sizes about three orders of magnitude sooner, and the
// shape of the time-quality trade-off is what the figure demonstrates.
func solverQuality(name string, spec clusterSpec, opt Opts) *Result {
	budgets := []time.Duration{
		5 * time.Millisecond, 10 * time.Millisecond,
		30 * time.Millisecond, 60 * time.Millisecond,
	}
	budgetLabels := []string{"5 ms", "10 ms", "30 ms", "60 ms"}
	variesStep := 20.0
	if opt.Full {
		variesStep = 10.0
	}
	res := &Result{
		Name: name,
		Title: fmt.Sprintf("Solver quality: %d nodes, %d key groups, %d operators",
			spec.nodes, spec.groups, spec.ops),
		Notes: "solver budgets scaled: paper seconds -> milliseconds",
	}
	for _, maxMig := range []int{10, 20, 30, 40} {
		panel := Panel{
			Title:  fmt.Sprintf("MaxMigrations = %d", maxMig),
			XLabel: "varies",
			YLabel: "load distance (%)",
		}
		flux := Series{Label: "Flux"}
		milp := make([]Series, len(budgets))
		for i := range milp {
			milp[i] = Series{Label: "MILP " + budgetLabels[i]}
		}
		for varies := 0.0; varies <= 100; varies += variesStep {
			rng := rand.New(rand.NewSource(opt.Seed + int64(varies*7) + int64(maxMig)))
			loads, cur := synthLoads(spec, varies, 60, rng)
			snap := synthSnapshot(spec, loads, cur)
			snap.MaxMigrations = maxMig

			plan, err := (baseline.Flux{}).Plan(context.Background(), snap)
			if err != nil {
				panic(err)
			}
			flux.X = append(flux.X, varies)
			flux.Y = append(flux.Y, core.Evaluate(snap, plan.GroupNode).LoadDistance)

			for i, budget := range budgets {
				b := &core.MILPBalancer{TimeLimit: budget, Seed: opt.Seed + int64(i)}
				plan, err := b.Plan(context.Background(), snap)
				if err != nil {
					panic(err)
				}
				milp[i].X = append(milp[i].X, varies)
				milp[i].Y = append(milp[i].Y, core.Evaluate(snap, plan.GroupNode).LoadDistance)
			}
		}
		panel.Series = append(panel.Series, flux)
		panel.Series = append(panel.Series, milp...)
		res.Panels = append(res.Panels, panel)
	}
	return res
}

// Fig2 reproduces Figure 2: 20 nodes, 400 key groups, 10 operators.
func Fig2(opt Opts) *Result {
	return solverQuality("fig2", clusterSpec{20, 400, 10}, opt)
}

// Fig3 reproduces Figure 3: 40 nodes, 800 key groups, 20 operators.
func Fig3(opt Opts) *Result {
	return solverQuality("fig3", clusterSpec{40, 800, 20}, opt)
}

// Fig4 reproduces Figure 4: 60 nodes, 1200 key groups, 30 operators.
func Fig4(opt Opts) *Result {
	return solverQuality("fig4", clusterSpec{60, 1200, 30}, opt)
}
