package experiments

import (
	"time"

	"repro/internal/baseline"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/workload"
)

// job1Scale returns the Real Job 1 configuration for the chosen scale.
func job1Scale(opt Opts) (cfg workload.JobConfig, nodes, periods, maxMig int) {
	cfg = workload.JobConfig{KeyGroups: 40, Rate: 8000, Seed: opt.Seed, WindowPeriods: 4}
	nodes, periods, maxMig = 10, 30, 13
	if opt.Full {
		cfg.KeyGroups = 100
		cfg.Rate = 16000
		cfg.WindowPeriods = 6
		nodes, periods = 20, 60
	}
	return
}

// runJob1 runs Real Job 1 under a balancer (nil budget = unrestricted).
func runJob1(opt Opts, bal core.Balancer, maxMig int, twoChoice bool) *controller.Metrics {
	cfg, nodes, periods, _ := job1Scale(opt)
	cfg.TwoChoice = twoChoice
	topo, err := workload.RealJob1(cfg)
	if err != nil {
		panic(err)
	}
	m, err := runAdaptive(runSpec{
		topo: topo, nodes: nodes, periods: periods, warmup: 2,
		balancer: bal, maxMig: maxMig,
	})
	if err != nil {
		panic(err)
	}
	return m
}

// Fig6 reproduces Figure 6: load distance per period on Real Job 1
// (Wikipedia) for the MILP, Flux and PoTC, maxMigrations = 13.
func Fig6(opt Opts) *Result {
	_, _, _, maxMig := job1Scale(opt)
	milp := runJob1(opt, &core.MILPBalancer{TimeLimit: 30 * time.Millisecond, Seed: opt.Seed}, maxMig, false)
	flux := runJob1(opt, baseline.Flux{}, maxMig, false)
	potc := runJob1(opt, core.NoopBalancer{}, 0, true)
	return &Result{
		Name:  "fig6",
		Title: "Real Job 1: load-balancing quality (MILP vs Flux vs PoTC)",
		Panels: []Panel{{
			Title:  "Load distance, directly after applying migrations",
			XLabel: "period", YLabel: "load distance (%)",
			Series: []Series{
				series("MILP", milp.LoadDistance),
				series("Flux", flux.LoadDistance),
				series("PoTC", potc.LoadDistance),
			},
		}},
	}
}

// Fig7 reproduces Figure 7: state migrations per period for the MILP and
// Flux under the same budget.
func Fig7(opt Opts) *Result {
	_, _, _, maxMig := job1Scale(opt)
	milp := runJob1(opt, &core.MILPBalancer{TimeLimit: 30 * time.Millisecond, Seed: opt.Seed}, maxMig, false)
	flux := runJob1(opt, baseline.Flux{}, maxMig, false)
	return &Result{
		Name:  "fig7",
		Title: "Real Job 1: state migrations per period",
		Panels: []Panel{{
			Title: "Migrations", XLabel: "period", YLabel: "#state-migrations",
			Series: []Series{
				series("MILP", milp.Migrations),
				series("Flux", flux.Migrations),
			},
		}},
	}
}

// Fig8 reproduces Figure 8: load distance when the migration budget is
// unrestricted versus limits of 10 and 13 key groups.
func Fig8(opt Opts) *Result {
	newMILP := func() core.Balancer {
		return &core.MILPBalancer{TimeLimit: 30 * time.Millisecond, Seed: opt.Seed}
	}
	unlimited := runJob1(opt, newMILP(), 0, false)
	ten := runJob1(opt, newMILP(), 10, false)
	thirteen := runJob1(opt, newMILP(), 13, false)
	return &Result{
		Name:  "fig8",
		Title: "Real Job 1: unrestricted load balancing — quality",
		Panels: []Panel{{
			Title: "Load distance", XLabel: "period", YLabel: "load distance (%)",
			Series: []Series{
				series("No limit", unlimited.LoadDistance),
				series("10 key groups", ten.LoadDistance),
				series("13 key groups", thirteen.LoadDistance),
			},
		}},
	}
}

// Fig9 reproduces Figure 9: the overhead side of Figure 8 — cumulative
// migration latency (total pause time of migrated key groups).
func Fig9(opt Opts) *Result {
	newMILP := func() core.Balancer {
		return &core.MILPBalancer{TimeLimit: 30 * time.Millisecond, Seed: opt.Seed}
	}
	unlimited := runJob1(opt, newMILP(), 0, false)
	ten := runJob1(opt, newMILP(), 10, false)
	thirteen := runJob1(opt, newMILP(), 13, false)
	return &Result{
		Name:  "fig9",
		Title: "Real Job 1: unrestricted load balancing — overhead",
		Panels: []Panel{{
			Title: "Cumulative migration latency", XLabel: "period", YLabel: "latency (min)",
			Series: []Series{
				series("No limit", unlimited.CumLatencyM),
				series("10 key groups", ten.CumLatencyM),
				series("13 key groups", thirteen.CumLatencyM),
			},
		}},
	}
}
