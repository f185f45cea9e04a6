package experiments

import (
	"context"

	"repro/internal/baseline"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

// airlineScale returns the Real Job 2-4 configuration: the paper uses 20
// workers with 5 key groups per operator per node and ~90 periods.
func airlineScale(opt Opts) (nodes, periods int, cfg workload.JobConfig) {
	nodes, periods = 10, 40
	if opt.Full {
		nodes, periods = 20, 90
	}
	cfg = workload.JobConfig{
		KeyGroups: 5 * nodes,
		Rate:      300 * nodes,
		Seed:      opt.Seed,
	}
	return
}

// minCollocationAllocation builds the paper's adversarial initial
// allocation: each operator's key groups are offset by the operator index,
// so One-To-One partners start on different nodes ("the initial collocation
// is as little as possible").
func minCollocationAllocation(topo *engine.Topology, nodes int) []int {
	alloc := make([]int, topo.NumGroups())
	for op := 0; op < topo.NumOps(); op++ {
		for kg := 0; kg < topo.OpKeyGroups(op); kg++ {
			alloc[topo.GID(op, kg)] = (kg + op) % nodes
		}
	}
	return alloc
}

// airlineRun executes one adaptive run of an airline job. periodsOverride
// replaces the default period count when positive (Figure 14 runs longer:
// its collocation converges more slowly with five communicating operators).
func airlineRun(opt Opts, build func(workload.JobConfig) (*engine.Topology, error),
	bal core.Balancer, maxMig int, rateScale float64, periodsOverride int) *controller.Metrics {
	nodes, periods, cfg := airlineScale(opt)
	if periodsOverride > 0 {
		periods = periodsOverride
	}
	cfg.RateScale = rateScale
	topo, err := build(cfg)
	if err != nil {
		panic(err)
	}
	m, err := runAdaptive(runSpec{
		topo: topo, nodes: nodes, periods: periods, warmup: 2,
		balancer: bal, maxMig: maxMig,
		initial: minCollocationAllocation(topo, nodes),
	})
	if err != nil {
		panic(err)
	}
	return m
}

func fourPanels(name, title string, albic, cola *controller.Metrics) *Result {
	return &Result{
		Name:  name,
		Title: title,
		Panels: []Panel{
			{Title: "Collocation Factor", XLabel: "period", YLabel: "percentage",
				Series: []Series{series("ALBIC", albic.Collocation), series("COLA", cola.Collocation)}},
			{Title: "Load Distance", XLabel: "period", YLabel: "percentage",
				Series: []Series{series("ALBIC", albic.LoadDistance), series("COLA", cola.LoadDistance)}},
			{Title: "Load Index", XLabel: "period", YLabel: "percentage",
				Series: []Series{series("ALBIC", albic.LoadIndex), series("COLA", cola.LoadIndex)}},
			{Title: "#Migrations", XLabel: "period", YLabel: "key groups",
				Series: []Series{series("ALBIC", albic.Migrations), series("COLA", cola.Migrations)}},
		},
	}
}

// Fig12 reproduces Figure 12: Real Job 2 (airline; perfect collocation
// obtainable) under ALBIC vs COLA — collocation factor, load distance, load
// index and migrations per period.
func Fig12(opt Opts) *Result {
	albic := airlineRun(opt, workload.RealJob2, newALBIC(opt.Seed), 10, 1, 0)
	cola := airlineRun(opt, workload.RealJob2, &baseline.COLA{Seed: opt.Seed}, 0, 1, 0)
	return fourPanels("fig12", "Real Job 2: ALBIC vs COLA", albic, cola)
}

// Fig13 reproduces Figure 13: Real Job 3 (adds the route-keyed operator,
// halving the obtainable collocation). COLA runs at 50% input rate, as in
// the paper, because its migration overhead would otherwise overwhelm the
// system.
func Fig13(opt Opts) *Result {
	albic := airlineRun(opt, workload.RealJob3, newALBIC(opt.Seed), 10, 1, 0)
	cola := airlineRun(opt, workload.RealJob3, &baseline.COLA{Seed: opt.Seed}, 0, 0.5, 0)
	res := fourPanels("fig13", "Real Job 3: ALBIC vs COLA", albic, cola)
	res.Notes = "COLA input rate halved (as in the paper)"
	return res
}

// Fig14 reproduces Figure 14: Real Job 4 (weather join pipeline) under
// ALBIC, with COLA's obtainable collocation shown as a reference level
// (running COLA live is infeasible: its migration volume exceeds the
// system's capacity, so the paper measures its collocation offline).
func Fig14(opt Opts) *Result {
	fig14Periods := 70
	if opt.Full {
		fig14Periods = 100
	}
	albic := airlineRun(opt, workload.RealJob4, newALBIC(opt.Seed), 10, 1, fig14Periods)

	// Offline COLA reference: plan from a converged snapshot, measure the
	// plan's collocation factor.
	nodes, _, cfg := airlineScale(opt)
	topo, err := workload.RealJob4(cfg)
	if err != nil {
		panic(err)
	}
	e, err := engine.New(topo, engine.Config{Nodes: nodes}, minCollocationAllocation(topo, nodes))
	if err != nil {
		panic(err)
	}
	defer e.Close()
	for p := 0; p < 3; p++ {
		if _, err := e.RunPeriod(); err != nil {
			panic(err)
		}
	}
	snap, err := e.Snapshot()
	if err != nil {
		panic(err)
	}
	colaCol := 0.0
	const trials = 3
	for i := 0; i < trials; i++ {
		plan, err := (&baseline.COLA{Seed: opt.Seed + int64(i)}).Plan(context.Background(), snap)
		if err != nil {
			panic(err)
		}
		colaCol += core.CollocationOf(snap, plan.GroupNode)
	}
	colaCol /= trials
	ref := Series{Label: "Collocation (COLA)"}
	for i := range albic.Collocation {
		ref.X = append(ref.X, float64(i+1))
		ref.Y = append(ref.Y, colaCol)
	}
	return &Result{
		Name:  "fig14",
		Title: "Real Job 4: ALBIC with COLA's offline collocation reference",
		Panels: []Panel{{
			Title: "ALBIC metrics", XLabel: "period", YLabel: "percentage",
			Series: []Series{
				series("Collocation (ALBIC)", albic.Collocation),
				series("Load Index (ALBIC)", albic.LoadIndex),
				series("Load Dist. (ALBIC)", albic.LoadDistance),
				ref,
			},
		}},
	}
}
