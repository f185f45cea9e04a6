package repro

// One benchmark per evaluation figure (the paper has no result tables;
// Tables 1-3 are symbol glossaries). Each benchmark regenerates the figure
// at reduced scale and reports its headline metric; run
//
//	go test -bench=Fig -benchmem
//
// or use `go run ./cmd/albic-bench -full` for paper-scale runs. Substrate
// micro-benchmarks follow at the bottom.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/graphpart"
	"repro/internal/workload"
)

func benchFig(b *testing.B, name string, metric func(*experiments.Result) (string, float64)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.Registry[name](experiments.Opts{Seed: 1})
		if metric != nil {
			label, v := metric(res)
			b.ReportMetric(v, label)
		}
	}
}

// meanY returns the mean of the series' Y values.
func meanY(s experiments.Series) float64 {
	if len(s.Y) == 0 {
		return 0
	}
	t := 0.0
	for _, y := range s.Y {
		t += y
	}
	return t / float64(len(s.Y))
}

func pick(res *experiments.Result, panel int, label string) experiments.Series {
	for _, s := range res.Panels[panel].Series {
		if s.Label == label {
			return s
		}
	}
	return experiments.Series{}
}

func BenchmarkFig2SolverQuality20(b *testing.B) {
	benchFig(b, "fig2", func(r *experiments.Result) (string, float64) {
		return "milp60ms_mean_loaddist", meanY(pick(r, 0, "MILP 60 ms"))
	})
}

func BenchmarkFig3SolverQuality40(b *testing.B) {
	benchFig(b, "fig3", func(r *experiments.Result) (string, float64) {
		return "milp60ms_mean_loaddist", meanY(pick(r, 0, "MILP 60 ms"))
	})
}

func BenchmarkFig4SolverQuality60(b *testing.B) {
	benchFig(b, "fig4", func(r *experiments.Result) (string, float64) {
		return "milp60ms_mean_loaddist", meanY(pick(r, 0, "MILP 60 ms"))
	})
}

func BenchmarkFig5IntegratedScaleIn(b *testing.B) {
	benchFig(b, "fig5", func(r *experiments.Result) (string, float64) {
		return "int_5ol_scalein_periods", pick(r, 1, "Integrated").Y[0]
	})
}

func BenchmarkFig6RealJob1Quality(b *testing.B) {
	benchFig(b, "fig6", func(r *experiments.Result) (string, float64) {
		return "milp_mean_loaddist", meanY(pick(r, 0, "MILP"))
	})
}

func BenchmarkFig7RealJob1Migrations(b *testing.B) {
	benchFig(b, "fig7", func(r *experiments.Result) (string, float64) {
		return "milp_mean_migrations", meanY(pick(r, 0, "MILP"))
	})
}

func BenchmarkFig8UnrestrictedQuality(b *testing.B) {
	benchFig(b, "fig8", func(r *experiments.Result) (string, float64) {
		return "nolimit_mean_loaddist", meanY(pick(r, 0, "No limit"))
	})
}

func BenchmarkFig9UnrestrictedOverhead(b *testing.B) {
	benchFig(b, "fig9", func(r *experiments.Result) (string, float64) {
		s := pick(r, 0, "No limit")
		return "nolimit_cum_latency_min", s.Y[len(s.Y)-1]
	})
}

func BenchmarkFig10CollocationSweep(b *testing.B) {
	benchFig(b, "fig10", func(r *experiments.Result) (string, float64) {
		return "albic_mean_collocation", meanY(pick(r, 0, "Collocate (ALBIC)"))
	})
}

func BenchmarkFig11Configurations(b *testing.B) {
	benchFig(b, "fig11", func(r *experiments.Result) (string, float64) {
		return "albic_mean_collocation", meanY(pick(r, 0, "Collocate (ALBIC)"))
	})
}

func BenchmarkFig12RealJob2(b *testing.B) {
	benchFig(b, "fig12", func(r *experiments.Result) (string, float64) {
		s := pick(r, 2, "ALBIC") // load index panel
		return "albic_final_loadindex", s.Y[len(s.Y)-1]
	})
}

func BenchmarkFig13RealJob3(b *testing.B) {
	benchFig(b, "fig13", func(r *experiments.Result) (string, float64) {
		s := pick(r, 0, "ALBIC")
		return "albic_final_collocation", s.Y[len(s.Y)-1]
	})
}

func BenchmarkFig14RealJob4(b *testing.B) {
	benchFig(b, "fig14", func(r *experiments.Result) (string, float64) {
		s := pick(r, 0, "Collocation (ALBIC)")
		return "albic_final_collocation", s.Y[len(s.Y)-1]
	})
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.

// singleGroupItems makes every key group its own item of migration cost 1:
// loads[k] is its load, cur[k] its node.
func singleGroupItems(loads []float64, cur []int) []assign.Item {
	items := make([]assign.Item, len(loads))
	for k := range loads {
		items[k] = assign.Item{Load: loads[k], MigCost: 1, Cur: cur[k], Pin: -1}
	}
	return items
}

// BenchmarkAssignSolve60x1200 rebalances the paper's largest cluster under
// a 20ms anytime budget.
func BenchmarkAssignSolve60x1200(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	loads := make([]float64, 1200)
	curs := make([]int, 1200)
	for k := range loads {
		loads[k] = 2 + rng.Float64()*3
		curs[k] = k % 60
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &assign.Problem{
			NumNodes:      60,
			Items:         singleGroupItems(loads, curs),
			MaxMigrations: 20,
		}
		sol, err := assign.Solve(p, assign.Options{TimeLimit: 20 * time.Millisecond, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sol.Eval.D, "final_d")
	}
}

// BenchmarkGraphPartition partitions a 1200-vertex graph 60 ways.
func BenchmarkGraphPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := graphpart.NewGraph(1200)
	for e := 0; e < 4000; e++ {
		g.AddEdge(rng.Intn(1200), rng.Intn(1200), 1+rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part, err := graphpart.Partition(g, 60, 1.1, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(graphpart.EdgeCut(g, part), "edgecut")
	}
}

// BenchmarkEngineThroughputSharded sweeps GOMAXPROCS over the sharded data
// path (Real Job 1, 8 nodes, 4 worker shards per node): the engine's
// multicore scaling profile, and the only measurement of ShardsPerNode —
// bench/ runs it at zero. Sources generate on one goroutine, so the curve
// flattens once generation saturates one core. The proc count is encoded in
// the sub-benchmark name (procs=N) and set explicitly inside, because the
// testing package's own -N name suffix reflects only the host's setting.
func BenchmarkEngineThroughputSharded(b *testing.B) {
	const perPeriod = 20000
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=4/procs=%d", procs), func(b *testing.B) {
			benchShardedThroughput(b, procs, perPeriod)
		})
	}
}

func benchShardedThroughput(b *testing.B, procs, perPeriod int) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	topo, err := workload.RealJob1(workload.JobConfig{KeyGroups: 32, Rate: perPeriod, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(topo, engine.Config{Nodes: 8, ShardsPerNode: 4}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var tuples int64
	for i := 0; i < b.N; i++ {
		ps, err := e.RunPeriod()
		if err != nil {
			b.Fatal(err)
		}
		tuples += ps.TuplesIn
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(tuples)/sec, "tuples/s")
	}
}

// ---------------------------------------------------------------------------
// The default anytime solver on its hard case, a plateau for single-move
// greedy search that the batch lookahead gets off (EXPERIMENTS.md, "The
// CPLEX-budget scaling note", says what the solver's budget means). final_d
// is the load distance a 10 ms solve ends at.

func solverPlateauProblem() *assign.Problem {
	// Five equally-overloaded nodes over a perfectly uniform background: a
	// plateau where no SINGLE move improves the objective (shaving one peak
	// leaves the others defining d; every receiver ties on the under side),
	// so phases with lookahead are required to make progress — exactly what
	// the exact MILP does natively.
	nodes, groups := 60, 1200
	loads := make([]float64, groups)
	curs := make([]int, groups)
	for k := range loads {
		loads[k] = 2.5
		curs[k] = k % nodes
	}
	for k := range loads {
		if curs[k] < 5 {
			loads[k] *= 1.8
		}
	}
	return &assign.Problem{
		NumNodes:      nodes,
		Items:         singleGroupItems(loads, curs),
		MaxMigrations: 20,
	}
}

func BenchmarkSolverPlateau(b *testing.B) {
	b.ReportAllocs()
	var sumD float64
	for i := 0; i < b.N; i++ {
		sol, err := assign.Solve(solverPlateauProblem(), assign.Options{
			Seed: int64(i), TimeLimit: 10 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		sumD += sol.Eval.D
	}
	b.ReportMetric(sumD/float64(b.N), "final_d")
}

// BenchmarkDecayExtension runs the Section 5.4 closing-remark experiment
// (COLA bootstrap, then maintenance by ALBIC / MILP / Flux).
func BenchmarkDecayExtension(b *testing.B) {
	benchFig(b, "decay", func(r *experiments.Result) (string, float64) {
		s := pick(r, 0, "albic")
		return "albic_final_collocation", s.Y[len(s.Y)-1]
	})
}
