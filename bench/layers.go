package main

import (
	"time"

	"repro/internal/core"
)

// perLayer are the metrics of single layers, named <module>.<name>. They
// come from the traced run — spans, the counters the engine reports at every
// period boundary — and from the probes that call each layer's exported
// functions on the run's own artefacts (probes.go). They have no bounds: they
// say where an end-to-end change came from. A metric that does not apply to
// a workload (no planner on steady-rj1, no cluster in-process) reads 0.
var perLayer = []metricDef{
	// Spans on the control goroutine.
	{"engine.data_ms_p50", "ms", false},
	{"engine.data_ns_per_tuple", "ns", false},
	{"engine.migrate_extra_ms_p50", "ms", false},
	{"engine.snapshot_ms_p50", "ms", false},
	{"engine.apply_plan_us_p50", "us", false},
	{"engine.checkpoint_ms_p50", "ms", false},
	{"engine.checkpoint_mb_per_s", "MB/s", true},
	{"controller.observe_self_ms_p50", "ms", false},
	{"controller.plans_applied_share", "share", true},
	// The balancer decorator.
	{"core.plan_ms_p50", "ms", false},
	{"core.plan_overrun_ms_p95", "ms", false},
	{"core.moves_per_plan", "count", false},
	{"core.plan_eval_d", "%", false},
	{"core.plan_collocation_pct", "%", true},
	// Counters of PeriodStats and CheckpointStats.
	{"engine.wire_bytes_per_tuple", "B", false},
	{"engine.bytes_per_frame", "B", true},
	{"engine.allocs_per_period", "count", false},
	{"engine.alloc_kb_per_period", "KB", false},
	{"engine.migrations_per_period", "count", false},
	{"engine.sync_delta_bytes_per_move", "B", false},
	{"engine.precopy_kb_per_period", "KB", false},
	{"engine.deferred_moves", "count", false},
	{"engine.state_mb", "MB", false},
	{"statestore.ckpt_new_kb_per_ckpt", "KB", false},
	// Layer probes.
	{"workload.gen_ns_per_tuple", "ns", false},
	{"workload.gen_parts4_cpu_ratio", "ratio", false},
	{"engine.encode_ns_per_tuple", "ns", false},
	{"engine.encode_bytes_per_tuple", "B", false},
	{"codec.frame_ns_per_item", "ns", false},
	{"transport.mem_us_per_frame", "us", false},
	{"transport.tcp_us_per_frame", "us", false},
	{"transport.tcp_mb_per_s", "MB/s", true},
	{"transport.tcp_rtt_us_p50", "us", false},
	{"statestore.encode_mb_per_s", "MB/s", true},
	{"statestore.decode_mb_per_s", "MB/s", true},
	{"statestore.checkpoint_full_mb_per_s", "MB/s", true},
	{"statestore.checkpoint_noop_us_per_group", "us", false},
	{"assign.solve_d_at_5ms", "%", false},
	{"assign.solve_d_at_25ms", "%", false},
	// Set-up, the reference run, the processes, the tracing itself.
	{"engine.build_ms", "ms", false},
	{"distrib.cluster_form_ms", "ms", false},
	{"engine.single_node_tuples_per_s", "1/s", true},
	{"proc.peak_rss_mb", "MB", false},
	{"proc.cpu_s_per_mtuple", "s", false},
	{"trace.overhead_pct", "%", false},
	{"trace.tiled_pct", "%", true},
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianOf(v []float64) value { return value{median(v), len(v)} }

const mb = 1 << 20

// layerValues computes the span- and counter-derived per-layer metrics of a
// traced run over its measured periods.
func layerValues(w *workloadDef, res *runResult, t *tracer, ref *refRun, in *instance) values {
	m := res.measured()
	recOf := make(map[int]periodRec, len(m))
	for _, r := range m {
		recOf[r.period] = r
	}
	spans := t.rec.spans
	self := selfTimes(spans)

	byName := map[string][]float64{} // durations in ms, measured periods only
	var dataQuiet, dataMigrating, observeSelf []float64
	var dataTotal, ckptTotal, tiled time.Duration
	var ckptBytes int64
	var first, last int64
	for _, s := range spans {
		r, ok := recOf[s.Period]
		if !ok {
			continue
		}
		byName[s.Name] = append(byName[s.Name], ms(s.dur()))
		switch s.Name {
		case spanPeriod:
			if first == 0 || s.Start < first {
				first = s.Start
			}
			last = max(last, s.End)
		case spanData:
			dataTotal += s.dur()
			tiled += s.dur()
			switch classOf(r) {
			case quiet:
				dataQuiet = append(dataQuiet, ms(s.dur()))
			case migrating:
				dataMigrating = append(dataMigrating, ms(s.dur()))
			}
		case spanObserve:
			tiled += s.dur()
			observeSelf = append(observeSelf, ms(self[s.ID]))
		case spanCheckpoint:
			ckptTotal += s.dur()
			ckptBytes += r.stateBytes
		}
	}

	tuples := tuplesIn(m)
	var wire, frames, migrations, deferred, delta, precopy, ckptNew int64
	var allocs, allocBytes uint64
	ckpts := 0
	for _, r := range m {
		wire += r.wireIn
		frames += r.frames
		migrations += int64(r.migrations)
		deferred += int64(r.deferred)
		delta += r.deltaBytes
		precopy += r.precopyBytes
		allocs += r.allocs
		allocBytes += r.allocBytes
		if r.ckpt {
			ckpts++
			ckptNew += int64(r.ckptNewBytes)
		}
	}
	n := float64(len(m))

	v := values{
		"engine.data_ms_p50":       medianOf(byName[spanData]),
		"engine.data_ns_per_tuple": {ratio(float64(dataTotal), float64(tuples)), len(m)},
		"engine.snapshot_ms_p50":   medianOf(byName[spanSnapshot]),
		"engine.checkpoint_ms_p50": medianOf(byName[spanCheckpoint]),
		"engine.checkpoint_mb_per_s": {
			ratio(float64(ckptBytes)/mb, ckptTotal.Seconds()), len(byName[spanCheckpoint])},
		"controller.observe_self_ms_p50": medianOf(observeSelf),
		"controller.plans_applied_share": {ratio(float64(res.metrics.PlansApplied), float64(len(res.recs))), len(res.recs)},

		"engine.wire_bytes_per_tuple":      {ratio(float64(wire), float64(tuples)), 0},
		"engine.bytes_per_frame":           {ratio(float64(wire), float64(frames)), 0},
		"engine.allocs_per_period":         {float64(allocs) / n, 0},
		"engine.alloc_kb_per_period":       {float64(allocBytes) / 1024 / n, 0},
		"engine.migrations_per_period":     {float64(migrations) / n, 0},
		"engine.sync_delta_bytes_per_move": {ratio(float64(delta), float64(migrations)), 0},
		"engine.precopy_kb_per_period":     {float64(precopy) / 1024 / n, 0},
		"engine.deferred_moves":            {float64(deferred), 0},
		"engine.state_mb":                  {float64(m[len(m)-1].stateBytes) / mb, 0},
		"statestore.ckpt_new_kb_per_ckpt":  {ratio(float64(ckptNew)/1024, float64(ckpts)), ckpts},
		"engine.build_ms":                  {ms(in.built.Sub(in.began)), 0},
		"engine.single_node_tuples_per_s":  {ratio(float64(ref.tuples), ref.wall.Seconds()), len(ref.tuplesIn)},
		"trace.tiled_pct":                  {100 * ratio(float64(tiled), float64(last-first)), 0},
	}
	if len(dataQuiet) > 0 && len(dataMigrating) > 0 {
		v["engine.migrate_extra_ms_p50"] = value{median(dataMigrating) - median(dataQuiet), len(dataMigrating)}
	}
	if d := byName[spanApplyPlan]; len(d) > 0 {
		v["engine.apply_plan_us_p50"] = value{1000 * median(d), len(d)}
	}
	if w.workers > 0 {
		v["distrib.cluster_form_ms"] = v["engine.build_ms"]
	}

	// Plans, attributed to the measured period that caused them.
	var planMS, overrun, moves, evalD, colloc []float64
	for _, p := range t.plans {
		if _, ok := recOf[p.period]; !ok {
			continue
		}
		planMS = append(planMS, ms(p.dur))
		overrun = append(overrun, ms(p.dur-planBudget))
		moves = append(moves, float64(p.moves))
		colloc = append(colloc, p.collocation)
		if p.hasEval {
			evalD = append(evalD, p.evalD)
		}
	}
	if len(planMS) > 0 {
		v["core.plan_ms_p50"] = medianOf(planMS)
		if _, budgeted := res.balancer.(*core.ALBIC); budgeted {
			v["core.plan_overrun_ms_p95"] = value{quantile(overrun, 0.95), len(overrun)}
		}
		v["core.moves_per_plan"] = value{mean(moves), len(moves)}
		v["core.plan_eval_d"] = value{mean(evalD), len(evalD)}
		v["core.plan_collocation_pct"] = value{mean(colloc), len(colloc)}
	}
	return v
}

// procValues adds what the processes cost: the benchmark process's CPU time
// over the traced run plus the workers' whole lives, and peak memory.
func procValues(v values, res *runResult, before, after, workers usage) {
	cpu := after.cpu - before.cpu + workers.cpu
	v["proc.cpu_s_per_mtuple"] = value{ratio(cpu.Seconds(), float64(tuplesIn(res.recs))/1e6), 0}
	v["proc.peak_rss_mb"] = value{float64(after.rssMax+workers.rssMax) / mb, 0}
}
