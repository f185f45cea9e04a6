// Command albic-run executes one of the paper's streaming jobs on the
// engine under a chosen reconfiguration policy, driven by the shared
// control plane (internal/controller), printing per-period metrics.
//
// By default planning is pipelined: while period N+1's data flows, the
// controller plans on period N's snapshot in a separate goroutine, applies
// the outcome at boundary N+1 — waiting there if the solve is still running —
// and the moves run in period N+2. A planner faster than a period never stops
// the data path, and every period gets its plan at a fixed lag, so a run
// whose solves converge within their time limit prints the same output
// (plan_ms aside) every time. -pipelined=false restores the paper's lockstep
// loop.
//
// A flag that would be ignored is an error, exit status 2: -workers without
// -listen; -incremental or -migr-cost with a balancer that does not plan
// (anything but albic and milp); -budget with cola, potc or none (only the
// planners and Flux bound their moves by count). So is a size the run would
// replace or never reach: -nodes, -periods or -shards below 1, -shards above
// 256, a negative -groups, -rate, -budget or -ckpt-every.
//
// With -ckpt-every N the controller checkpoints all key-group state
// incrementally every N periods, which arms checkpoint-assisted migration: a
// planned move of a checkpointed group ships the checkpoint its source holds
// as the base and, as the synchronous part, only the delta since — and with
// -migr-cost the planner prices such moves at delta cost, so a tight budget
// is spent where migration is cheap. The run ends with one line of totals:
// the checkpoints and the bytes they appended, the checkpoint bytes moves
// shipped as base (precopy=) and their deltas (sync deltas=).
//
// Usage:
//
//	albic-run -job rj2 -balancer albic -nodes 10 -periods 40 -budget 10
//	albic-run -job rj1 -balancer milp -pipelined=false
//	albic-run -job rj1 -balancer potc       # two-choice routing, no migration
//	albic-run -job rj3 -balancer cola
//	albic-run -job rj2 -nodes 50 -groups 2000 -incremental   # 16k-group scale
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/workload"
)

func main() {
	job := flag.String("job", "rj2", "job: rj1|rj2|rj3|rj4")
	balancerName := flag.String("balancer", "albic", "policy: albic|milp|flux|cola|potc|none")
	nodes := flag.Int("nodes", 10, "worker nodes")
	groups := flag.Int("groups", 0, "key groups per keyed operator (0 = 5 per node)")
	periods := flag.Int("periods", 40, "periods to run")
	budget := flag.Int("budget", 10, "max key-group migrations per period (0 = unlimited)")
	rate := flag.Int("rate", 0, "input tuples per period (0 = job default)")
	seed := flag.Int64("seed", 1, "random seed")
	pipelined := flag.Bool("pipelined", true, "overlap planning with the next period's data flow")
	smooth := flag.Float64("smooth", 1, "EWMA factor for planner inputs, in (0,1]; 1 = plan on raw loads")
	ckptEvery := flag.Int("ckpt-every", 0, "incremental checkpoint every N periods (0 = off); arms checkpoint-assisted delta migration")
	migrCost := flag.Float64("migr-cost", 0, "max migration cost per adaptation, in state bytes a move ships synchronously (0 = unlimited)")
	shards := flag.Int("shards", 1, "worker shards per node (parallel operator execution; needs GOMAXPROCS > 1 to pay off)")
	incremental := flag.Bool("incremental", false, "dirty-region incremental planning: only groups with material load/placement changes (plus their comm neighborhoods) are re-solved each period (albic and milp only)")
	listen := flag.String("listen", "", "run distributed: listen on this address and wait for -workers albic-node processes to join (empty = single-process)")
	workers := flag.Int("workers", 2, "worker processes to wait for with -listen")
	flag.Parse()
	// A size the run would not use is an error, not a silent substitution.
	for _, c := range []struct {
		name   string
		v, min int
		use    string
	}{
		{"nodes", *nodes, 1, "need at least 1 node"},
		{"periods", *periods, 1, "need at least 1 period"},
		{"shards", *shards, 1, "need at least 1 shard per node"},
		{"workers", *workers, 1, "need at least 1 worker process"},
		{"groups", *groups, 0, "use 0 for 5 per node"},
		{"rate", *rate, 0, "use 0 for the job default"},
		{"budget", *budget, 0, "use 0 for unlimited"},
		{"ckpt-every", *ckptEvery, 0, "use 0 for no checkpoints"},
	} {
		if c.v < c.min {
			fmt.Fprintf(os.Stderr, "albic-run: -%s %d is below %d; %s\n", c.name, c.v, c.min, c.use)
			os.Exit(2)
		}
	}
	// A shard index is a byte: the engine refuses more than 256 per node.
	if *shards > 256 {
		fmt.Fprintf(os.Stderr, "albic-run: -shards %d is above 256, the most a node has\n", *shards)
		os.Exit(2)
	}
	// Written so that NaN, which fails every comparison, fails them too.
	if !(*smooth > 0 && *smooth <= 1) {
		fmt.Fprintf(os.Stderr, "albic-run: -smooth %g out of range (0,1]\n", *smooth)
		os.Exit(2)
	}
	if !(*migrCost >= 0 && *migrCost < math.Inf(1)) {
		fmt.Fprintf(os.Stderr, "albic-run: -migr-cost %g out of range [0,+Inf); use 0 for unlimited\n", *migrCost)
		os.Exit(2)
	}
	// A flag that only acts beside another one is an error when set without
	// it, not a silent no-op.
	unmet := map[string]string{}
	if *listen == "" {
		unmet["workers"] = "-listen"
	}
	planner := *balancerName == "albic" || *balancerName == "milp"
	if !planner {
		unmet["incremental"] = "-balancer albic or milp"
		unmet["migr-cost"] = "-balancer albic or milp"
	}
	if !planner && *balancerName != "flux" {
		unmet["budget"] = "-balancer albic, milp or flux"
	}
	flag.Visit(func(f *flag.Flag) {
		if need, ok := unmet[f.Name]; ok {
			fmt.Fprintf(os.Stderr, "albic-run: -%s requires %s\n", f.Name, need)
			os.Exit(2)
		}
	})

	cfg := workload.JobConfig{KeyGroups: 5 * *nodes, Rate: *rate, Seed: *seed}
	if *groups > 0 {
		cfg.KeyGroups = *groups
	}
	if cfg.Rate == 0 {
		cfg.Rate = 300 * *nodes
	}
	if *balancerName == "potc" {
		cfg.TwoChoice = true
	}

	build, ok := distrib.Jobs[*job]
	if !ok {
		fmt.Fprintf(os.Stderr, "albic-run: unknown job %q\n", *job)
		os.Exit(2)
	}
	topo, err := build(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "albic-run: %v\n", err)
		os.Exit(1)
	}

	var bal core.Balancer
	switch *balancerName {
	case "albic":
		bal = &core.ALBIC{TimeLimit: 25 * time.Millisecond, Seed: *seed, Incremental: *incremental}
	case "milp":
		bal = &core.MILPBalancer{TimeLimit: 25 * time.Millisecond, Seed: *seed, Incremental: *incremental}
	case "flux":
		bal = baseline.Flux{}
	case "cola":
		bal = &baseline.COLA{Seed: *seed}
	case "potc", "none":
		bal = core.NoopBalancer{}
	default:
		fmt.Fprintf(os.Stderr, "albic-run: unknown balancer %q\n", *balancerName)
		os.Exit(2)
	}

	ecfg := repro.EngineConfig{Nodes: *nodes, ShardsPerNode: *shards}
	var e *repro.Engine
	if *listen != "" {
		fmt.Printf("listening on %s for %d workers...\n", *listen, *workers)
		e, err = distrib.StartTCP(*listen, *workers, distrib.JobSpec{
			Job:       *job,
			Workload:  cfg,
			Engine:    ecfg,
			NodePeers: distrib.DefaultPeers(*nodes, *workers),
		})
	} else {
		e, err = repro.NewEngine(topo, ecfg, nil)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "albic-run: %v\n", err)
		os.Exit(1)
	}
	defer e.Close()

	fmt.Printf("job=%s balancer=%s nodes=%d budget=%d rate=%d pipelined=%v\n",
		*job, *balancerName, *nodes, *budget, cfg.Rate, *pipelined)
	fmt.Printf("%7s %10s %12s %10s %11s %12s %10s\n",
		"period", "loadDist%", "collocation%", "avgLoad%", "migrations", "migLatency_s", "plan_ms")
	ctrl := repro.NewController(e, repro.ControllerOptions{
		Balancer:        bal,
		MaxMigrations:   *budget,
		MaxMigrCost:     *migrCost,
		SmoothAlpha:     *smooth,
		Pipelined:       *pipelined,
		CheckpointEvery: *ckptEvery,
		OnPeriod: func(r repro.PeriodReport) {
			planMS := "-"
			if r.Outcome != nil {
				planMS = fmt.Sprintf("%.1f", float64(r.PlanLatency.Microseconds())/1000)
			}
			fmt.Printf("%7d %10.2f %12.1f %10.1f %11d %12.2f %10s\n",
				r.Period, r.LoadDistance, r.Collocation, r.AverageLoad,
				r.Stats.Migrations, r.Stats.MigrationLatency, planMS)
		},
	})
	m, err := ctrl.Run(context.Background(), *periods)
	if err != nil {
		fmt.Fprintf(os.Stderr, "albic-run: %v\n", err)
		os.Exit(1)
	}
	if *ckptEvery > 0 {
		fmt.Printf("checkpoints=%d (appended %d B), precopy=%d B, sync deltas=%d B\n",
			m.Checkpoints, m.CkptBytes, m.PrecopyBytes, m.MigratedDeltaBytes)
	}
}
