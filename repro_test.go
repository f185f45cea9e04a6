package repro_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro"
)

// TestFacadeEndToEnd drives the facade by hand: topology construction,
// engine execution, snapshotting, and planning with the MILP.
func TestFacadeEndToEnd(t *testing.T) {
	topo := repro.NewTopology()
	topo.AddSource("src", func(period int, emit repro.Emit) {
		for i := 0; i < 400; i++ {
			emit((&repro.Tuple{Key: fmt.Sprintf("k%d", i%50), TS: int64(i)}).
				WithNum("v", float64(i)))
		}
	})
	topo.AddOperator(&repro.Operator{
		Name:      "agg",
		KeyGroups: 12,
		Proc: func(tu *repro.Tuple, st *repro.State, emit repro.Emit) {
			st.Add("sum", tu.Num("v"))
		},
	})
	topo.Connect("src", "agg")
	if err := topo.Build(); err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewEngine(topo, repro.EngineConfig{Nodes: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var bal repro.Balancer = &repro.MILPBalancer{TimeLimit: 10 * time.Millisecond}
	for p := 0; p < 3; p++ {
		if _, err := eng.RunPeriod(); err != nil {
			t.Fatal(err)
		}
		snap, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap.MaxMigrations = 4
		plan, err := bal.Plan(context.Background(), snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.ApplyPlan(plan.GroupNode); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFacadeRealJobs builds the paper jobs the facade exports.
func TestFacadeRealJobs(t *testing.T) {
	cfg := repro.JobConfig{KeyGroups: 8, Rate: 200, Seed: 1}
	for name, build := range map[string]func(repro.JobConfig) (*repro.Topology, error){
		"rj1": repro.RealJob1, "rj2": repro.RealJob2,
	} {
		topo, err := build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eng, err := repro.NewEngine(topo, repro.EngineConfig{Nodes: 2}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := eng.RunPeriod(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eng.Close()
	}
}
