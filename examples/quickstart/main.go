// Quickstart: build a small streaming word-count job, run it on the engine,
// and let the controller (the paper's integrative adaptation loop) erase a
// load imbalance with the MILP balancer under a migration budget.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro"
)

func main() {
	// 1. Define the topology: a word source (a 2000-word vocabulary with a
	// mildly hot head) feeding a windowed counter feeding a sink.
	rng := rand.New(rand.NewSource(42))
	topo := repro.NewTopology()
	topo.AddSource("words", func(period int, emit repro.Emit) {
		for i := 0; i < 5000; i++ {
			w := fmt.Sprintf("word-%04d", rng.Intn(2000))
			if rng.Intn(5) == 0 {
				w = fmt.Sprintf("word-%04d", rng.Intn(40)) // hot head
			}
			emit(&repro.Tuple{Key: w, TS: int64(period*5000 + i)})
		}
	})
	topo.AddOperator(&repro.Operator{
		Name:      "count",
		KeyGroups: 16,
		Proc: func(t *repro.Tuple, st *repro.State, emit repro.Emit) {
			st.Table("counts").Add(t.Key, 1)
		},
		Flush: func(kg int, st *repro.State, emit repro.Emit) {
			for w, c := range st.Table("counts").All() {
				emit((&repro.Tuple{Key: w}).WithNum("count", c))
			}
			st.ClearTable("counts")
		},
	})
	topo.AddOperator(&repro.Operator{
		Name:      "report",
		KeyGroups: 8,
		Proc: func(t *repro.Tuple, st *repro.State, emit repro.Emit) {
			st.Add(t.Key, t.Num("count"))
		},
	})
	topo.Connect("words", "count")
	topo.Connect("count", "report")

	// 2. Start the engine on 4 worker nodes with everything stacked on
	// node 0 — a deliberately terrible initial allocation.
	if err := topo.Build(); err != nil {
		log.Fatal(err)
	}
	initial := make([]int, topo.NumGroups())
	e, err := repro.NewEngine(topo, repro.EngineConfig{Nodes: 4}, initial)
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()

	// 3. Hand the engine to the controller: each period it processes a
	// batch, snapshots statistics, plans with the MILP under a budget of 4
	// migrations and applies the plan. (Set Pipelined: true to overlap
	// planning with the next period's data instead of running in lockstep;
	// each plan then applies one boundary later — see examples/scaling.)
	fmt.Println("period  loadDistance%  migrations")
	ctrl := repro.NewController(e, repro.ControllerOptions{
		Balancer:      &repro.MILPBalancer{TimeLimit: 20 * time.Millisecond},
		MaxMigrations: 4,
		SmoothAlpha:   1, // plan on raw per-period loads
		OnPeriod: func(r repro.PeriodReport) {
			fmt.Printf("%6d  %12.2f  %10d\n", r.Period, r.LoadDistance, r.Stats.Migrations)
		},
	})
	if _, err := ctrl.Run(context.Background(), 10); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nThe MILP drains the overloaded node a few key groups at a time;")
	fmt.Println("load distance falls toward the sampling-noise floor.")
}
