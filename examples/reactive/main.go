// Reactive: demonstrate sub-period reconfiguration on a workload with a
// sudden transient hotspot. A keyed counter runs balanced for a few
// periods; then one key abruptly becomes very hot. The lockstep controller
// can only react at the next period barrier. Built with
// EngineConfig.SubPeriods = 4, the engine switches the controller's reactive
// mode on: the trigger detects the skew at the first sub-interval boundary
// inside the hot period and a greedy hot move relieves the hot node before
// the period even ends — watch the hotMoves column.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

const (
	nodes     = 4
	keyGroups = 16
	perPeriod = 8000
	periods   = 10
	hotPeriod = 4 // the period in which the hotspot appears
)

// buildTopology returns a keyed counter job whose key distribution is
// uniform until hotPeriod, when ~40% of the stream collapses onto one key.
func buildTopology() *repro.Topology {
	topo := repro.NewTopology()
	topo.AddSource("events", func(period int, emit repro.Emit) {
		for i := 0; i < perPeriod; i++ {
			k := fmt.Sprintf("key-%04d", (i*7919+period)%1200)
			if period >= hotPeriod && i%5 < 2 {
				k = "key-viral" // transient hotspot: 40% of the stream
			}
			emit(&repro.Tuple{Key: k, TS: int64(period*perPeriod + i)})
		}
	})
	topo.AddOperator(&repro.Operator{
		Name:      "count",
		KeyGroups: keyGroups,
		Proc: func(t *repro.Tuple, st *repro.State, emit repro.Emit) {
			st.Add(t.Key, 1)
		},
	})
	topo.Connect("events", "count")
	return topo
}

func run(reactive bool) {
	topo := buildTopology()
	if err := topo.Build(); err != nil {
		log.Fatal(err)
	}
	cfg := repro.EngineConfig{Nodes: nodes}
	if reactive {
		cfg.SubPeriods = 4
	}
	e, err := repro.NewEngine(topo, cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()

	mode := "lockstep (period-barrier reactions only)"
	if reactive {
		mode = "reactive (sub-period hot moves)"
	}
	fmt.Printf("\n== %s ==\n", mode)
	fmt.Printf("%7s %10s %11s %9s\n", "period", "loadDist%", "migrations", "hotMoves")
	ctrl := repro.NewController(e, repro.ControllerOptions{
		Balancer:      &repro.MILPBalancer{TimeLimit: 10 * time.Millisecond, Seed: 1},
		MaxMigrations: 3,
		OnPeriod: func(r repro.PeriodReport) {
			marker := ""
			if r.Period == hotPeriod {
				marker = "  <- hotspot appeared"
			}
			fmt.Printf("%7d %10.2f %11d %9d%s\n",
				r.Period, r.LoadDistance, r.Stats.Migrations, r.Stats.HotMoves, marker)
		},
	})
	m, err := ctrl.Run(context.Background(), periods)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total hot moves: %d, plans applied: %d\n", m.HotMoves, m.PlansApplied)
}

func main() {
	run(false)
	run(true)
}
