package experiments

import (
	"context"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/engine"
)

// runSpec describes one adaptive engine run.
type runSpec struct {
	topo     *engine.Topology
	nodes    int
	periods  int
	warmup   int // ignored initialization periods (the paper drops them)
	balancer core.Balancer
	maxMig   int // <= 0: unrestricted
	initial  []int
	// targetAvgLoad calibrates capacity after warm-up (default 60%).
	targetAvgLoad float64
}

// runAdaptive executes the run through the shared control plane
// (internal/controller) in lockstep mode — the paper's evaluation is
// defined in lockstep terms: each period the engine processes a batch, the
// controller snapshots statistics, EWMA-smooths the planner inputs, the
// balancer plans under the migration budget, and the plan is applied
// (migrations execute at the next period's start, concurrent with its
// data).
func runAdaptive(spec runSpec) (*controller.Metrics, error) {
	e, err := engine.New(spec.topo, engine.Config{Nodes: spec.nodes}, spec.initial)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	ctrl := controller.New(e, controller.Options{
		Balancer:      spec.balancer,
		Warmup:        spec.warmup,
		TargetAvgLoad: spec.targetAvgLoad,
		MaxMigrations: spec.maxMig,
	})
	return ctrl.Run(context.Background(), spec.warmup+spec.periods)
}

// series converts a recorded metric into a plotted Series.
func series(label string, ys []float64) Series {
	s := Series{Label: label}
	for i, y := range ys {
		s.X = append(s.X, float64(i+1))
		s.Y = append(s.Y, y)
	}
	return s
}
