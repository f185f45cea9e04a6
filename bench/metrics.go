package main

import (
	"time"
)

// metricDef is one entry of the metric dictionary. BENCHMARK.json lists the
// same names, units and directions (a test keeps the two in step); the bounds
// live only there.
type metricDef struct {
	name, unit string
	higher     bool // true: higher is better
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"tuples_per_s", "1/s", true},
	{"period_ms_p50", "ms", false},
	{"period_ms_p95", "ms", false},
	{"migrate_period_ms_p50", "ms", false},
	{"ckpt_period_ms_p50", "ms", false},
	{"load_distance_pct", "%", false},
	{"collocation_pct", "%", true},
	{"setup_s", "s", false},
}

// value is one reported number with the sample count behind it (0 when the
// number is not a statistic of samples).
type value struct {
	v float64
	n int
}

// values maps metric names to what a run measured.
type values map[string]value

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// periodDurations returns the wall-clock of every measured period: the
// distance between consecutive period boundaries.
func periodDurations(res *runResult) []time.Duration {
	m := res.measured()
	d := make([]time.Duration, len(m))
	prev := res.warm
	for i, r := range m {
		d[i] = r.end.Sub(prev)
		prev = r.end
	}
	return d
}

// tuplesPerSecond is Σ TuplesIn over the measured periods over their
// wall-clock.
func tuplesPerSecond(res *runResult) float64 {
	m := res.measured()
	return float64(tuplesIn(m)) / m[len(m)-1].end.Sub(res.warm).Seconds()
}

func tuplesIn(recs []periodRec) int64 {
	var n int64
	for _, r := range recs {
		n += r.tuplesIn
	}
	return n
}

// class is the kind of a period on the workloads that reconfigure.
type class int

const (
	quiet       class = iota
	migrating         // executed at least one migration and took no checkpoint
	checkpoints       // its boundary took a checkpoint
)

func classOf(r periodRec) class {
	switch {
	case r.ckpt:
		return checkpoints
	case r.migrations > 0:
		return migrating
	}
	return quiet
}

// byClass picks the per-period values of one class, in milliseconds.
func byClass(m []periodRec, d []time.Duration, c class) []float64 {
	var out []float64
	for i, r := range m {
		if classOf(r) == c {
			out = append(out, ms(d[i]))
		}
	}
	return out
}

// endToEndValues computes the end-to-end metrics of an untraced run. setups
// are the set-up times of all instances built in this run, in seconds.
//
// A workload without periods of a class (steady-rj1 neither migrates nor
// checkpoints) reports the median over all its periods under that class's
// name, so that every workload prints every metric and none reads 0.
func endToEndValues(res *runResult, setups []float64) values {
	m := res.measured()
	d := periodDurations(res)
	all := make([]float64, len(d))
	var loadDist, colloc []float64
	for i, r := range m {
		all[i] = ms(d[i])
		loadDist = append(loadDist, r.loadDist)
		colloc = append(colloc, r.colloc)
	}
	classMedian := func(c class) value {
		if v := byClass(m, d, c); len(v) > 0 {
			return value{median(v), len(v)}
		}
		return value{median(all), len(all)}
	}
	return values{
		"tuples_per_s":          {tuplesPerSecond(res), len(m)},
		"period_ms_p50":         {median(all), len(all)},
		"period_ms_p95":         {quantile(all, 0.95), len(all)},
		"migrate_period_ms_p50": classMedian(migrating),
		"ckpt_period_ms_p50":    classMedian(checkpoints),
		"load_distance_pct":     {mean(loadDist), len(loadDist)},
		"collocation_pct":       {mean(colloc), len(colloc)},
		"setup_s":               {median(setups), len(setups)},
	}
}
