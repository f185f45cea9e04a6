package repro_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro"
)

// TestFacadeEndToEnd drives the whole public API surface: topology
// construction, engine execution, snapshotting, planning with ALBIC and the
// MILP, scaling via the framework, and direct problem solving.
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

	// The optimization layer is directly usable too.
	prob := &repro.Problem{
		NumNodes: 2,
		Items: []repro.ProblemItem{
			{Groups: []int{0}, Load: 10, MigCost: 1, Cur: 0, Pin: -1},
			{Groups: []int{1}, Load: 10, MigCost: 1, Cur: 0, Pin: -1},
		},
		MaxMigrations: 1,
	}
	sol, err := repro.Solve(prob, repro.SolveOptions{TimeLimit: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Eval.D != 0 {
		t.Fatalf("d = %v, want perfect split", sol.Eval.D)
	}
}

// TestFacadeRealJobs builds all four paper jobs through the facade.
func TestFacadeRealJobs(t *testing.T) {
	cfg := repro.JobConfig{KeyGroups: 8, Rate: 200, Seed: 1}
	for name, build := range map[string]func(repro.JobConfig) (*repro.Topology, error){
		"rj1": repro.RealJob1, "rj2": repro.RealJob2,
		"rj3": repro.RealJob3, "rj4": repro.RealJob4,
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

// TestFacadeSources exercises the dataset simulators through the facade.
func TestFacadeSources(t *testing.T) {
	for name, src := range map[string]repro.SourceFunc{
		"wikipedia": repro.WikipediaSource(repro.WikipediaConfig{BaseRate: 100, Seed: 1}),
		"airline":   repro.AirlineSource(repro.AirlineConfig{Rate: 100, Seed: 1}),
		"weather":   repro.WeatherSource(repro.WeatherConfig{Rate: 100, Seed: 1}),
	} {
		n := 0
		src(0, func(*repro.Tuple) { n++ })
		if n == 0 {
			t.Fatalf("%s source emitted nothing", name)
		}
	}
}
