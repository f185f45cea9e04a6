// Fault tolerance through the incremental state store: each period the
// engine checkpoints every key group into a versioned store (full snapshot
// once, deltas after — watch newB stay far below totB), and the same store
// powers checkpoint-assisted migration: the MILP's planned moves ship the
// checkpoint as their base and synchronously transfer only the delta
// (deltaB column). When a worker node crashes, the lost groups are
// restored on the survivors from their last checkpoint and the MILP
// rebalances the shrunken cluster — the integration of fault tolerance and
// elasticity the paper builds on (reference [26], SSDBM 2014).
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
	rng := rand.New(rand.NewSource(5))
	topo := repro.NewTopology()
	topo.AddSource("orders", func(period int, emit repro.Emit) {
		// Long-tail customer base: each period touches only a fraction of
		// the accumulated state, so incremental checkpoints stay small.
		for i := 0; i < 3000; i++ {
			t := &repro.Tuple{Key: fmt.Sprintf("cust-%05d", rng.Intn(30000)), TS: int64(period*10000 + i)}
			emit(t.WithNum("amount", 5+rng.Float64()*95))
		}
	})
	topo.AddOperator(&repro.Operator{
		Name:      "revenue",
		KeyGroups: 20,
		Proc: func(t *repro.Tuple, st *repro.State, emit repro.Emit) {
			st.Add("revenue", t.Num("amount"))
			st.Add("orders", 1)
			st.Table("by-cust").Add(t.Key, t.Num("amount"))
		},
	})
	topo.Connect("orders", "revenue")
	if err := topo.Build(); err != nil {
		log.Fatal(err)
	}

	e, err := repro.NewEngine(topo, repro.EngineConfig{Nodes: 4}, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()

	balancer := &repro.MILPBalancer{TimeLimit: 15 * time.Millisecond}

	fmt.Println("period  nodes  ckpt-newB  ckpt-totB  migr  deltaB  event")
	for period := 1; period <= 12; period++ {
		ps, err := e.RunPeriod()
		if err != nil {
			log.Fatal(err)
		}
		if period == 1 {
			e.CalibrateCapacity(60)
		}
		event := ""

		// Crash node 2 right after period 6 completes: its groups' progress
		// since the last checkpoint is lost; the survivors re-create them
		// from the store and keep running — the barrier protocol never
		// wedges.
		if period == 6 {
			if err := e.FailNode(2); err != nil {
				log.Fatal(err)
			}
			recovered, err := e.Recover(nil)
			if err != nil {
				log.Fatal(err)
			}
			event = fmt.Sprintf("node 2 crashed; %d groups restored from checkpoint @p%d",
				recovered, e.CheckpointStore().Version(0))
		}

		// Incremental checkpoint every period (after any recovery, so it is
		// consistent): the first one pays full snapshots, later ones append
		// only per-group deltas.
		cs := e.TakeCheckpoint()

		snap, err := e.Snapshot()
		if err != nil {
			log.Fatal(err)
		}
		alive := 0
		for _, k := range snap.Kill {
			if !k {
				alive++
			}
		}
		fmt.Printf("%6d  %5d  %9d  %9d  %4d  %6d  %s\n",
			period, alive, cs.NewBytes, cs.TotalBytes, ps.Migrations, ps.MigratedDeltaBytes, event)

		// Plan the next period. Checkpointed groups are priced at delta
		// cost, so the MILP prefers moves the store makes cheap.
		snap.MaxMigrations = 6
		plan, err := balancer.Plan(context.Background(), snap)
		if err != nil {
			log.Fatal(err)
		}
		if err := e.ApplyPlan(plan.GroupNode); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nThe crash loses only the failed node's progress since the last")
	fmt.Println("checkpoint; the survivors absorb its key groups and the MILP")
	fmt.Println("rebalances the 3-node cluster on the next period. Planned moves")
	fmt.Println("of checkpointed groups ship only deltas (deltaB) — the pre-copied")
	fmt.Println("checkpoint base never pauses processing.")
}
