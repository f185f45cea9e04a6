// Scaling: the asynchronous control plane reacting to a load surge and a
// later lull — scale-out under pressure, then scale-in with the MILP
// draining the marked nodes (Lemma 2) before the controller terminates
// them. Planning runs pipelined: the planner works on the previous
// period's snapshot while the next period's data flows, and its outcome
// applies at the next boundary.
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
	// A source whose rate triples between periods 8 and 18.
	rng := rand.New(rand.NewSource(11))
	rate := func(period int) int {
		if period >= 8 && period < 18 {
			return 9000
		}
		return 3000
	}
	topo := repro.NewTopology()
	topo.AddSource("events", func(period int, emit repro.Emit) {
		n := rate(period)
		for i := 0; i < n; i++ {
			emit((&repro.Tuple{
				Key: fmt.Sprintf("user-%04d", rng.Intn(3000)),
				TS:  int64(period*10000 + i),
			}).WithNum("amount", rng.Float64()*100))
		}
	})
	topo.AddOperator(&repro.Operator{
		Name:      "enrich",
		KeyGroups: 24,
		Proc: func(t *repro.Tuple, st *repro.State, emit repro.Emit) {
			emit(t)
		},
	})
	topo.AddOperator(&repro.Operator{
		Name:      "aggregate",
		KeyGroups: 24,
		Proc: func(t *repro.Tuple, st *repro.State, emit repro.Emit) {
			st.Add("sum", t.Num("amount"))
		},
	})
	topo.Connect("events", "enrich")
	topo.Connect("enrich", "aggregate")
	if err := topo.Build(); err != nil {
		log.Fatal(err)
	}

	e, err := repro.NewEngine(topo, repro.EngineConfig{Nodes: 3}, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()

	// The controller runs the integrative adaptation framework
	// (Algorithm 1) each period: terminate drained nodes, plan, and size
	// the cluster from the tentative plan. Scale decisions and plans are
	// applied at period boundaries; planning itself overlaps the data flow.
	fmt.Println("period  nodes  avgLoad%  maxLoad%  action")
	draining := map[int]bool{} // kill-marked or terminated
	// The MILP budget is kept proportionate to this demo's millisecond
	// periods: in pipelined mode the next boundary waits for a plan that
	// outlasts its period, so a larger budget would stall the data path.
	ctrl := repro.NewController(e, repro.ControllerOptions{
		Balancer: &repro.MILPBalancer{TimeLimit: 2 * time.Millisecond},
		Scaler: &repro.UtilizationScaler{
			TargetUtil: 65, HighWater: 90, LowWater: 40, MinNodes: 2, MaxStep: 2,
		},
		MaxMigrations: 8,
		TargetAvgLoad: 65,
		SmoothAlpha:   1,
		Pipelined:     true,
		OnPeriod: func(r repro.PeriodReport) {
			action := ""
			for _, id := range r.Terminated {
				draining[id] = true
				action += fmt.Sprintf("terminated node %d; ", id)
			}
			if len(r.Added) > 0 {
				action += fmt.Sprintf("added node(s) %v; ", r.Added)
			}
			if r.Outcome != nil && len(r.Outcome.Scale.MarkForRemoval) > 0 {
				for _, id := range r.Outcome.Scale.MarkForRemoval {
					draining[id] = true
				}
				action += fmt.Sprintf("marked %v for removal; ", r.Outcome.Scale.MarkForRemoval)
			}
			loads := e.NodeLoadPercents() // one entry per node slot
			alive, sum, max := 0, 0.0, 0.0
			for id := range loads {
				if draining[id] {
					continue
				}
				alive++
				sum += loads[id]
				if loads[id] > max {
					max = loads[id]
				}
			}
			if alive == 0 {
				alive = 1
			}
			fmt.Printf("%6d  %5d  %8.1f  %8.1f  %s\n", r.Period, alive, sum/float64(alive), max, action)
		},
	})
	if _, err := ctrl.Run(context.Background(), 26); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nThe controller sizes the cluster from the tentative plan: the surge")
	fmt.Println("triggers scale-out only when rebalancing alone cannot fix the")
	fmt.Println("overload, and the lull drains marked nodes before terminating them.")
}
