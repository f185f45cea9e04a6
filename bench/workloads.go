package main

import (
	"context"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/workload"
)

const (
	// warmupPeriods are run before anything is measured: the jobs' windows
	// fill in 6 periods, the controller calibrates capacity after the first,
	// and the first (full) checkpoint is taken by period 8.
	warmupPeriods = 16
	// cycle is the period count every measured run is a multiple of: the
	// least common multiple of the checkpoint cadences (4, 8) and the
	// scripted plan cadence (8), so each run holds whole reconfiguration
	// cycles and the period classes keep their proportions.
	cycle = 8
	// refPeriods is the length of the single-node reference run the measured
	// run's tuple counts are checked against.
	refPeriods = 64
	// nodes is the cluster size of every workload.
	nodes = 8
	// planBudget is the ALBIC solve budget of the adaptive workloads
	// (albic-run's default); core.plan_overrun_ms_p95 is measured against it.
	planBudget = 25 * time.Millisecond
)

// workloadDef is one named workload. The engine configuration is
// engine.Config{Nodes: nodes} for all of them: the benchmark measures the
// default path.
type workloadDef struct {
	name string
	why  string
	// job/keyGroups/rate make the JobSpec; the seed comes from -seed.
	job       string
	keyGroups int
	rate      int
	// workers > 0 runs the job over that many worker OS processes on TCP
	// loopback instead of in-process.
	workers int
	// periods is the measured period count of a count-based run (-scale 1).
	periods int
	// options builds the controller options for a seed (OnPeriod is added by
	// the runner).
	options func(seed int64) controller.Options
}

var workloads = []workloadDef{
	{
		name: "steady-rj1",
		why:  "no balancer, no checkpoints: the data path does all the work, so planner, statestore and transport changes must predict no change here",
		job:  "rj1", keyGroups: 32, rate: 20000, periods: 2000,
		options: func(int64) controller.Options { return controller.Options{} },
	},
	{
		name: "reconfig-rj1",
		why:  "scripted full rotation every 8 periods beside checkpoints every 8: quiet, migrating and checkpointing periods in one run, statestore written and read at once, no planner cost",
		job:  "rj1", keyGroups: 32, rate: 20000, periods: 1120,
		options: func(int64) controller.Options {
			return controller.Options{
				Balancer:        &rotateBalancer{every: 8, offset: 4},
				CheckpointEvery: 8,
			}
		},
	},
	{
		name: "adaptive-rj3",
		why:  "the integrative loop as albic-run runs it: pipelined ALBIC competes with the data path for a core, collocation is half obtainable, state is large enough for checkpoints and budgeted moves to show",
		job:  "rj3", keyGroups: 64, rate: 20000, periods: 640,
		options: adaptiveOptions,
	},
	{
		name: "adaptive-rj3-tcp",
		why:  "the same job and options over 1 controller and 2 worker processes on TCP loopback: the delta to adaptive-rj3 is the cost of transport, codec and distrib",
		job:  "rj3", keyGroups: 64, rate: 20000, periods: 640, workers: 2,
		options: adaptiveOptions,
	},
}

// adaptiveOptions are albic-run's defaults plus a checkpoint cadence.
func adaptiveOptions(seed int64) controller.Options {
	return controller.Options{
		Balancer:        &core.ALBIC{TimeLimit: planBudget, Seed: seed},
		MaxMigrations:   8,
		Pipelined:       true,
		SmoothAlpha:     1,
		CheckpointEvery: 4,
	}
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// spec is the complete description of the job under test; the in-process
// engine, the TCP cluster and the single-node reference are all built from
// it, so they run the identical job.
func (w *workloadDef) spec(seed int64) distrib.JobSpec {
	s := distrib.JobSpec{
		Job:      w.job,
		Workload: workload.JobConfig{KeyGroups: w.keyGroups, Rate: w.rate, Seed: seed},
		Engine:   engine.Config{Nodes: nodes},
	}
	if w.workers > 0 {
		s.NodePeers = distrib.DefaultPeers(nodes, w.workers)
	}
	return s
}

// rotateBalancer is the zero-cost scripted balancer of reconfig-rj1: on
// every every-th call (at the given offset) it returns the full rotation
// gid → (node+1) mod nodes, otherwise the current allocation unchanged. The
// controller is lockstep there, so calls count periods.
type rotateBalancer struct {
	every, offset int
	calls         int
	// plans counts the rotation plans returned.
	plans int
}

func (b *rotateBalancer) Name() string { return "rotate" }

func (b *rotateBalancer) Plan(_ context.Context, s *core.Snapshot) (*core.Plan, error) {
	b.calls++
	target := make([]int, len(s.Groups))
	rotate := b.calls%b.every == b.offset
	for k, g := range s.Groups {
		target[k] = g.Node
		if rotate {
			target[k] = (g.Node + 1) % s.NumNodes
		}
	}
	if rotate {
		b.plans++
	}
	return core.PlanFromAssignment(s, target, nil), nil
}
