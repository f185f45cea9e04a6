package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// runConfig is what the command line fixes for every run of an invocation.
type runConfig struct {
	seconds float64
	scale   float64
	quick   bool
	trace   bool
	// outDir is where a traced run writes its spans.
	outDir string
}

// quickPeriods is the measured period count of -quick.
const quickPeriods = 40

func (c runConfig) budget(w *workloadDef) budget {
	switch {
	case c.quick:
		return budget{periods: quickPeriods}
	case c.scale > 0:
		n := int(math.Round(float64(w.periods)*c.scale/cycle)) * cycle
		return budget{periods: max(n, cycle)}
	}
	return budget{seconds: c.seconds}
}

// setups is how many times a run sets its job up. A traced run reports no
// setup_s, so it sets up only the instances it measures.
func (c runConfig) setups() int {
	if c.quick || c.trace {
		return 1
	}
	return setupRepeats
}

// outcome is one run of one workload: what the checks found and the metrics
// of the mode it ran in.
type outcome struct {
	workload string
	seed     int64
	traced   bool
	// attempted and failed count operations; an operation is one period,
	// warm-up included.
	attempted, failed int
	measured          int
	violations        []string
	metrics           values
}

// runOnce runs one workload once: the reference run, then either the
// end-to-end measurement (set up setupRepeats times, measure the last
// instance untraced) or the traced measurement with its layer probes. The
// error return is for what no later run could fix (the job does not build,
// the trace cannot be written); anything the program under test does wrong
// is a failed operation in the outcome.
func runOnce(ctx context.Context, w *workloadDef, seed int64, cfg runConfig) (*outcome, error) {
	b := cfg.budget(w)
	refLen := refPeriods
	if b.periods > 0 {
		refLen = min(refLen, warmupPeriods+b.periods)
	}
	ref, err := reference(w.spec(seed), refLen)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	o := &outcome{workload: w.name, seed: seed, traced: cfg.trace}

	// Set-up is timed from the start of building to the boundary that ends
	// warm-up. All but the last instance stop there.
	var setups []float64
	for i := 1; i < cfg.setups(); i++ {
		in, res := w.launch(ctx, seed, budget{warmOnly: true}, nil)
		shut(in, res)
		if res.err != nil {
			o.account(w, res, ref)
			return o, nil
		}
		setups = append(setups, res.warm.Sub(in.began).Seconds())
	}

	in, res := w.launch(ctx, seed, b, nil)
	shut(in, res)
	o.account(w, res, ref)
	if res.err != nil || len(res.measured()) == 0 {
		return o, nil
	}
	if !cfg.trace {
		setups = append(setups, res.warm.Sub(in.began).Seconds())
		o.metrics = endToEndValues(res, setups)
		return o, nil
	}

	// Traced: the untraced run above is the base of trace.overhead_pct. The
	// traced instance stays up for the probes, which read its checkpoint
	// store and final snapshot.
	t := newTracer(w.options(seed).Pipelined)
	before := selfUsage()
	in, tres := w.launch(ctx, seed, b, t)
	after := selfUsage()
	o.account(w, tres, ref)
	if in == nil {
		return o, nil
	}
	if tres.err == nil && len(tres.measured()) > 0 {
		o.metrics = layerValues(w, tres, t, ref, in)
		if tiled := o.metrics["trace.tiled_pct"].v; tiled < 99 {
			o.fail(fmt.Sprintf("spans tile %.2f%% of the measured wall-clock, want >= 99%%", tiled))
		}
		base, traced := tuplesPerSecond(res), tuplesPerSecond(tres)
		o.metrics["trace.overhead_pct"] = value{100 * (base - traced) / base, 0}
		probe(w, seed, in, w.options(seed).MaxMigrations, o.metrics)
	}
	workers, err := in.stop()
	if err != nil {
		o.fail(fmt.Sprintf("traced run: %v", err))
	}
	if o.metrics == nil {
		return o, nil
	}
	procValues(o.metrics, tres, before, after, workers)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	return o, t.rec.writeJSONL(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl"))
}

// shut stops the instance of a finished untraced run; a worker that did not
// exit cleanly fails the run.
func shut(in *instance, res *runResult) {
	if in == nil {
		return
	}
	if _, err := in.stop(); err != nil && res.err == nil {
		res.err = err
	}
}

// launch builds the workload's job and drives it. A job that cannot be built
// — a worker that does not join — is a failed operation, not a failed
// benchmark: it comes back as a run with an error and no instance.
func (w *workloadDef) launch(ctx context.Context, seed int64, b budget, t *tracer) (*instance, *runResult) {
	in, err := w.start(ctx, seed)
	if err != nil {
		return nil, &runResult{err: err}
	}
	return in, w.drive(ctx, in, seed, b, t)
}

// account adds one controller run to the outcome's operation counts.
func (o *outcome) account(w *workloadDef, res *runResult, ref *refRun) {
	o.violations = append(o.violations, w.check(res, ref)...)
	o.attempted += len(res.recs)
	for _, r := range res.recs {
		if r.failed {
			o.failed++
		}
	}
	if res.err != nil {
		// The period Run gave up on.
		o.attempted++
		o.fail(fmt.Sprintf("run: %v", res.err))
	}
	o.measured = len(res.measured())
}

func (o *outcome) fail(what string) {
	o.failed++
	o.violations = append(o.violations, what)
}

// defs returns the dictionary of the mode the outcome ran in.
func (o *outcome) defs() []metricDef {
	if o.traced {
		return perLayer
	}
	return endToEnd
}

// print writes every metric by name with its unit and sample count.
func (o *outcome) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d: %d periods measured, %d attempted, %d failed\n",
		o.workload, o.seed, o.measured, o.attempted, o.failed)
	for _, v := range o.violations {
		fmt.Fprintf(w, "  CHECK FAILED %s\n", v)
	}
	if p := topPercentile(o.measured); !o.traced && p < 95 {
		fmt.Fprintf(w, "  note: %d periods leave fewer than ten samples beyond p95; the highest percentile they support is p%g\n", o.measured, p)
	}
	for _, d := range o.defs() {
		v := o.metrics[d.name] // a metric that does not apply reads 0
		n := ""
		if v.n > 0 {
			n = fmt.Sprintf("  (n=%d)", v.n)
		}
		fmt.Fprintf(w, "  %-40s %14.4f %s%s\n", d.name, v.v, d.unit, n)
	}
}

// driverLine is the result object the benchmark driver reads from the last
// line of standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) driverLine() driverLine {
	l := driverLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]driverMetric{}}
	for _, d := range o.defs() {
		l.Metrics[d.name] = driverMetric{Value: o.metrics[d.name].v, Unit: d.unit}
	}
	return l
}
