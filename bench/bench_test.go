package main

import (
	"context"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary when the TCP
// workload re-executes os.Executable() as its workers.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-worker" {
		if err := runWorker(os.Args[2]); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := samplesBeyond(300, 95); got != 15 {
		t.Errorf("samplesBeyond(300, 95) = %d, want 15", got)
	}
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(values, n=4):
// for 1..10 the quartiles are 2.75, 5.5 and 8.25.
func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "parent", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // sticks out of the parent by 20
		{ID: 4, Parent: 2, Name: "grandchild", Start: 35, End: 45},
	}
	self := selfTimes(spans)
	// Covered: [10,60] and [90,100] = 60 of the parent's 100.
	if self[0] != 40 {
		t.Errorf("parent self time = %d, want 40", self[0])
	}
	if self[1] != 30 || self[2] != 20 || self[3] != 30 || self[4] != 10 {
		t.Errorf("child self times = %v, want [_ 30 20 30 10]", self)
	}
}

// okRun is a run of warm-up plus one cycle that passes every check against
// the reference it returns.
func okRun(balancer *rotateBalancer) (*runResult, *refRun) {
	res := &runResult{groups: 96}
	ref := &refRun{}
	if balancer != nil {
		res.balancer = balancer
	}
	for p := 1; p <= warmupPeriods+cycle; p++ {
		r := periodRec{period: p, tuplesIn: 100, tuplesOut: 10, wireIn: 5, wireOut: 5, stateBytes: 7}
		r.ckpt = balancer != nil && p%8 == 0
		if balancer != nil && p%8 == 5 {
			r.migrations = 96
		}
		res.recs = append(res.recs, r)
		ref.tuplesIn = append(ref.tuplesIn, 100)
		ref.tuplesOut = append(ref.tuplesOut, 10)
	}
	ref.stateBytes = 7
	if balancer != nil {
		balancer.plans = len(res.recs) / balancer.every
	}
	return res, ref
}

func TestChecks(t *testing.T) {
	w := findWorkload("reconfig-rj1")
	res, ref := okRun(&rotateBalancer{every: 8, offset: 4})
	if bad := w.check(res, ref); len(bad) != 0 {
		t.Fatalf("clean run fails its checks: %v", bad)
	}

	// The classes overlap: a checkpointing period that also migrated.
	res, ref = okRun(&rotateBalancer{every: 8, offset: 4})
	res.recs[warmupPeriods+4].migrations = 0
	res.recs[warmupPeriods+7].migrations = 96
	if bad := w.check(res, ref); len(bad) != 1 || !res.recs[warmupPeriods+7].failed {
		t.Errorf("overlapping classes: violations %v, period failed %v", bad, res.recs[warmupPeriods+7].failed)
	}

	// A lost migration, a broken wire identity, a tuple count off the reference.
	res, ref = okRun(&rotateBalancer{every: 8, offset: 4})
	res.recs[warmupPeriods+4].migrations = 95
	res.recs[3].wireIn++
	res.recs[9].tuplesOut--
	if bad := w.check(res, ref); len(bad) != 3 {
		t.Errorf("want 3 violations, got %v", bad)
	}

	// Without a balancer nothing may migrate.
	res, ref = okRun(nil)
	res.recs[warmupPeriods+1].migrations = 1
	if bad := findWorkload("steady-rj1").check(res, ref); len(bad) != 1 {
		t.Errorf("migration without balancer: %v", bad)
	}
}

func TestClassMedians(t *testing.T) {
	res, _ := okRun(&rotateBalancer{every: 8, offset: 4})
	at := time.Unix(0, 0)
	for i := range res.recs {
		step := 10 * time.Millisecond
		switch classOf(res.recs[i]) {
		case migrating:
			step = 30 * time.Millisecond
		case checkpoints:
			step = 50 * time.Millisecond
		}
		at = at.Add(step)
		res.recs[i].end = at
	}
	res.warm = res.recs[warmupPeriods-1].end
	v := endToEndValues(res, []float64{0.5, 0.1, 0.3})
	want := map[string]float64{
		"period_ms_p50": 10, "migrate_period_ms_p50": 30, "ckpt_period_ms_p50": 50,
		"setup_s": 0.3, "tuples_per_s": 800 / 0.14,
	}
	for name, x := range want {
		if got := v[name].v; math.Abs(got-x) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, x)
		}
	}
	// steady-rj1 has no periods of either class: both read the overall median.
	res, _ = okRun(nil)
	for i := range res.recs {
		res.recs[i].end = time.Unix(0, 0).Add(time.Duration(i+1) * 10 * time.Millisecond)
	}
	res.warm = res.recs[warmupPeriods-1].end
	v = endToEndValues(res, []float64{1})
	if v["migrate_period_ms_p50"].v != 10 || v["ckpt_period_ms_p50"].v != 10 {
		t.Errorf("fallback medians = %v / %v, want 10", v["migrate_period_ms_p50"].v, v["ckpt_period_ms_p50"].v)
	}
}

// TestSourceProbe checks the standalone source the generation probe runs: the
// airline source emits exactly Rate tuples per period, and for both jobs the
// four parts union to the whole batch.
func TestSourceProbe(t *testing.T) {
	for _, w := range workloads[1:3] { // one rj1, one rj3
		whole, parts, _, _ := genProbe(w.source(1))
		if whole == 0 || whole != parts {
			t.Errorf("%s: whole run emitted %d tuples, the 4 parts together %d", w.name, whole, parts)
		}
		if w.job == "rj3" && whole != probePeriods*w.rate {
			t.Errorf("%s: %d tuples over %d periods, want exactly %d per period", w.name, whole, probePeriods, w.rate)
		}
	}
}

// TestAwait covers the ways cluster formation gives up instead of hanging.
func TestAwait(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	block := func() error { <-release; return nil }
	alive := &workerProc{done: make(chan struct{})}
	dead := &workerProc{done: make(chan struct{}), err: errors.New("exit status 1")}
	close(dead.done)
	ctx := context.Background()
	if err := await(ctx, "join", time.Minute, alive, func() error { return nil }); err != nil {
		t.Errorf("finished step: %v", err)
	}
	if err := await(ctx, "join", time.Minute, dead, block); err == nil || !strings.Contains(err.Error(), "worker exited first") {
		t.Errorf("dead worker: %v", err)
	}
	if err := await(ctx, "join", 20*time.Millisecond, alive, block); err == nil || !strings.Contains(err.Error(), "not done within") {
		t.Errorf("timeout: %v", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := await(cancelled, "join", time.Minute, alive, block); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled: %v", err)
	}
}

func TestVerdict(t *testing.T) {
	m := func(better string, median, spread float64) metricResult {
		return metricResult{Better: better, Median: median, Spread: spread}
	}
	for _, c := range []struct {
		a, b  metricResult
		bound float64
		want  string
	}{
		{m("lower", 100, 0.01), m("lower", 105, 0.01), 0.08, verdictWithin},
		{m("lower", 100, 0.01), m("lower", 110, 0.01), 0.08, verdictWorse},
		{m("lower", 100, 0.01), m("lower", 90, 0.01), 0.08, verdictBetter},
		{m("higher", 100, 0.01), m("higher", 90, 0.01), 0.08, verdictWorse},
		{m("higher", 100, 0.01), m("higher", 110, 0.01), 0.08, verdictBetter},
		{m("lower", 100, 0.01), m("lower", 150, 0.09), 0.08, verdictUnresolved},
	} {
		if got, _ := verdict(c.a, c.b, c.bound); got != c.want {
			t.Errorf("verdict(%v → %v, bound %v) = %q, want %q", c.a.Median, c.b.Median, c.bound, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the dictionaries here.
func TestBenchmarkJSON(t *testing.T) {
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s / %s", i, file.Workloads[i], w.name, w.why)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the dictionaries %d+%d",
			len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		m := file.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != direction(d.higher) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, want %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		m := file.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != direction(d.higher) {
			t.Errorf("per_layer %d: %+v, want %+v", i, m, d)
		}
	}
}

// TestQuickRuns is the -quick mode: every workload for 40 measured periods
// with all checks, untraced and traced.
func TestQuickRuns(t *testing.T) {
	out := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			if w.workers > 0 && testing.Short() {
				t.Skip("spawns worker processes")
			}
			for _, traced := range []bool{false, true} {
				o, err := runOnce(context.Background(), w, 1, runConfig{quick: true, trace: traced, outDir: out})
				if err != nil {
					t.Fatal(err)
				}
				if o.failed != 0 || o.measured != quickPeriods {
					t.Fatalf("traced=%v: %d failed of %d, %d measured: %v", traced, o.failed, o.attempted, o.measured, o.violations)
				}
				if !traced {
					for _, d := range endToEnd {
						if v := o.metrics[d.name].v; !(v > 0) {
							t.Errorf("%s = %v, want > 0", d.name, v)
						}
					}
					continue
				}
				for _, name := range []string{"engine.data_ms_p50", "workload.gen_ns_per_tuple", "transport.tcp_us_per_frame", "statestore.encode_mb_per_s", "engine.single_node_tuples_per_s"} {
					if v := o.metrics[name].v; !(v > 0) {
						t.Errorf("%s = %v, want > 0", name, v)
					}
				}
				if v := o.metrics["trace.tiled_pct"].v; v < 99 {
					t.Errorf("spans tile %.2f%% of the measured wall-clock", v)
				}
			}
		})
	}
}
