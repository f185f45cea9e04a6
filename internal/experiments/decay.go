package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

// Decay reproduces the paper's closing observation of Section 5.4: "It
// would be reasonable to use COLA for an initial key group allocation at
// job submission, and then to use ALBIC for maintaining a good allocation
// at runtime. If one uses a simpler load balancing algorithm such as MILP
// or Flux instead of ALBIC, the collocation achieved by COLA would
// deteriorate at runtime."
//
// The run bootstraps Real Job 2 with one COLA plan (optimal collocation),
// then hands maintenance to ALBIC, the plain MILP, or Flux, and tracks the
// collocation factor: only ALBIC preserves it, because only ALBIC treats
// collocated groups as migration units.
func Decay(opt Opts) *Result {
	nodes, periods, cfg := airlineScale(opt)

	runMaint := func(maint core.Balancer) Series {
		topo, err := workload.RealJob2(cfg)
		if err != nil {
			panic(err)
		}
		e, err := engine.New(topo, engine.Config{Nodes: nodes}, minCollocationAllocation(topo, nodes))
		if err != nil {
			panic(err)
		}
		defer e.Close()

		// Bootstrap: two warm-up periods, then one COLA plan.
		for p := 0; p < 2; p++ {
			if _, err := e.RunPeriod(); err != nil {
				panic(err)
			}
			if p == 0 {
				e.CalibrateCapacity(60)
			}
		}
		snap, err := e.Snapshot()
		if err != nil {
			panic(err)
		}
		boot, err := (&baseline.COLA{Seed: opt.Seed}).Plan(context.Background(), snap)
		if err != nil {
			panic(err)
		}
		if err := e.ApplyPlan(boot.GroupNode); err != nil {
			panic(err)
		}

		// Maintenance under load jitter with the usual budget, through the
		// shared control plane (SmoothAlpha 1: the maintenance policies are
		// compared on raw per-period loads; TargetAvgLoad < 0: capacity was
		// calibrated during the bootstrap above).
		ctrl := controller.New(e, controller.Options{
			Balancer:      maint,
			MaxMigrations: 10,
			SmoothAlpha:   1,
			TargetAvgLoad: -1,
		})
		m, err := ctrl.Run(context.Background(), periods)
		if err != nil {
			panic(fmt.Sprintf("decay(%s): %v", maint.Name(), err))
		}
		return series(maint.Name(), m.Collocation)
	}

	albic := runMaint(newALBIC(opt.Seed))
	milp := runMaint(&core.MILPBalancer{TimeLimit: 25 * time.Millisecond, Seed: opt.Seed})
	flux := runMaint(baseline.Flux{})
	return &Result{
		Name:  "decay",
		Title: "Collocation decay after a COLA bootstrap (Real Job 2, Section 5.4 remark)",
		Notes: "extension experiment: not a numbered paper figure",
		Panels: []Panel{{
			Title:  "Collocation factor under different maintenance policies",
			XLabel: "period", YLabel: "collocation (%)",
			Series: []Series{albic, milp, flux},
		}},
	}
}
