package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/engine"
)

// budget says how long the measured part of a run lasts: a fixed period
// count when periods > 0, otherwise whole cycles until seconds have passed.
type budget struct {
	periods int
	seconds float64
	// warmOnly stops at the boundary that ends warm-up (a set-up-only run).
	warmOnly bool
}

// periodRec is what the runner keeps of one period: scalars copied out of
// the controller's PeriodReport at the period boundary.
type periodRec struct {
	period int
	// end is the OnPeriod timestamp, i.e. the period boundary.
	end                 time.Time
	tuplesIn, tuplesOut int64
	wireIn, wireOut     int64 // receiver- and sender-measured cross-node bytes (sources included)
	frames              int64
	stateBytes          int64
	migrations          int
	deferred            int
	deltaBytes          int64
	precopyBytes        int64
	allocs, allocBytes  uint64
	ckpt                bool
	ckptNewBytes        int
	loadDist, colloc    float64
	failed              bool
}

// instance is one built job: the engine and, for a TCP workload, the worker
// processes behind it.
type instance struct {
	eng     *engine.Engine
	cluster *cluster
	// began is when building started, built when the engine was ready.
	began, built time.Time
}

// start builds the workload's job for a seed.
func (w *workloadDef) start(ctx context.Context, seed int64) (*instance, error) {
	in := &instance{began: time.Now()}
	spec := w.spec(seed)
	var err error
	if w.workers > 0 {
		in.eng, in.cluster, err = startCluster(ctx, spec, w.workers)
	} else {
		var topo *engine.Topology
		if topo, err = spec.Build(); err == nil {
			in.eng, err = engine.New(topo, spec.Engine, nil)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	in.built = time.Now()
	return in, nil
}

// stop closes the engine, which tells the workers to exit, and reaps them.
func (in *instance) stop() (usage, error) {
	in.eng.Close()
	if in.cluster == nil {
		return usage{}, nil
	}
	return in.cluster.wait()
}

// runResult is one controller run over an instance.
type runResult struct {
	recs    []periodRec
	metrics *controller.Metrics
	// balancer is the workload's own (undecorated) balancer, groups the
	// job's key-group count.
	balancer core.Balancer
	groups   int
	// warm is the boundary that ends warm-up: the first measured period
	// begins there.
	warm time.Time
	err  error
}

// measured returns the periods after warm-up.
func (r *runResult) measured() []periodRec {
	if len(r.recs) <= warmupPeriods {
		return nil
	}
	return r.recs[warmupPeriods:]
}

// drive runs the workload's controller over the instance through the
// documented entry point, controller.New(...).Run, for warm-up plus the
// budget. With a tracer the engine and the balancer are decorated; without
// one the controller gets the engine and the balancer as they are.
func (w *workloadDef) drive(ctx context.Context, in *instance, seed int64, b budget, t *tracer) *runResult {
	res := &runResult{groups: len(in.eng.Allocation())}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stopped := false

	total := 0 // run until cancelled
	switch {
	case b.warmOnly:
		total = warmupPeriods
	case b.periods > 0:
		total = warmupPeriods + b.periods
	}

	opt := w.options(seed)
	res.balancer = opt.Balancer
	opt.OnPeriod = func(r controller.PeriodReport) {
		now := time.Now()
		ps := r.Stats
		rec := periodRec{
			period:     ps.Period,
			end:        now,
			tuplesIn:   ps.TuplesIn,
			tuplesOut:  ps.TuplesOut,
			wireIn:     ps.BytesCrossNodeIn,
			wireOut:    ps.BytesCrossNode + ps.SrcBytesCrossNode,
			frames:     ps.BatchesCrossNode,
			migrations: ps.Migrations, deferred: ps.DeferredMoves,
			deltaBytes: ps.MigratedDeltaBytes, precopyBytes: ps.PrecopyBytes,
			allocs: ps.Allocs, allocBytes: ps.AllocBytes,
			loadDist: r.LoadDistance, colloc: r.Collocation,
		}
		for _, sb := range ps.StateBytes {
			rec.stateBytes += int64(sb)
		}
		if r.Checkpoint != nil {
			rec.ckpt, rec.ckptNewBytes = true, r.Checkpoint.NewBytes
		}
		res.recs = append(res.recs, rec)
		n := len(res.recs)
		if n == warmupPeriods {
			res.warm = now
		}
		if total == 0 && n > warmupPeriods && (n-warmupPeriods)%cycle == 0 &&
			now.Sub(res.warm).Seconds() >= b.seconds {
			stopped = true
			cancel()
		}
	}

	var eng controller.Engine = in.eng
	if t != nil {
		eng = &tracedEngine{Engine: in.eng, t: t}
		if opt.Balancer != nil {
			opt.Balancer = &tracedBalancer{Balancer: opt.Balancer, t: t}
		}
	}
	var err error
	res.metrics, err = controller.New(eng, opt).Run(ctx, total)
	if err != nil && !(stopped && errors.Is(err, context.Canceled)) {
		res.err = err
	}
	return res
}

// refRun is the single-node reference: the same job and seed on
// engine.Config{Nodes: 1}, stepped with RunPeriod. Tuple counts per period do
// not depend on placement, so they must match any measured run.
type refRun struct {
	tuplesIn, tuplesOut []int64
	stateBytes          int64 // Σ StateBytes after the last period
	tuples              int64 // Σ TuplesIn
	wall                time.Duration
}

func reference(spec distrib.JobSpec, periods int) (*refRun, error) {
	topo, err := spec.Build()
	if err != nil {
		return nil, err
	}
	e, err := engine.New(topo, engine.Config{Nodes: 1}, nil)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	ref := &refRun{}
	start := time.Now()
	for p := 0; p < periods; p++ {
		ps, err := e.RunPeriod()
		if err != nil {
			return nil, fmt.Errorf("reference period %d: %w", p+1, err)
		}
		ref.tuplesIn = append(ref.tuplesIn, ps.TuplesIn)
		ref.tuplesOut = append(ref.tuplesOut, ps.TuplesOut)
		ref.tuples += ps.TuplesIn
		ref.stateBytes = 0
		for _, sb := range ps.StateBytes {
			ref.stateBytes += int64(sb)
		}
	}
	ref.wall = time.Since(start)
	return ref, nil
}

// check applies the run-level checks, marking the periods that break one as
// failed, and returns a description of every violation.
func (w *workloadDef) check(res *runResult, ref *refRun) []string {
	var bad []string
	fail := func(i int, format string, args ...any) {
		res.recs[i].failed = true
		bad = append(bad, fmt.Sprintf("period %d: ", res.recs[i].period)+fmt.Sprintf(format, args...))
	}
	for i := range res.recs {
		r := &res.recs[i]
		if r.wireIn != r.wireOut {
			fail(i, "BytesCrossNodeIn %d != BytesCrossNode+SrcBytesCrossNode %d", r.wireIn, r.wireOut)
		}
		if i < len(ref.tuplesIn) && (r.tuplesIn != ref.tuplesIn[i] || r.tuplesOut != ref.tuplesOut[i]) {
			fail(i, "tuples in/out %d/%d, reference %d/%d", r.tuplesIn, r.tuplesOut, ref.tuplesIn[i], ref.tuplesOut[i])
		}
		if i == len(ref.tuplesIn)-1 && r.stateBytes != ref.stateBytes {
			fail(i, "state bytes %d, reference %d", r.stateBytes, ref.stateBytes)
		}
		// reconfig-rj1's period classes must be disjoint.
		if _, scripted := res.balancer.(*rotateBalancer); scripted && r.ckpt && r.migrations > 0 {
			fail(i, "checkpointing period also executed %d migrations", r.migrations)
		}
	}
	m := res.measured()
	if len(m) == 0 {
		return bad
	}
	migrations := 0
	for _, r := range m {
		migrations += r.migrations
	}
	last := len(res.recs) - 1
	if rot, ok := res.balancer.(*rotateBalancer); ok {
		// Every scripted plan moves every key group, within its own cycle.
		if want := res.groups * (len(m) / rot.every); migrations != want {
			fail(last, "%d migrations over the measured periods, want %d", migrations, want)
		}
		if want := len(res.recs) / rot.every; rot.plans != want {
			fail(last, "%d scripted plans, want %d", rot.plans, want)
		}
	}
	if res.balancer == nil && migrations != 0 {
		fail(last, "%d migrations without a balancer", migrations)
	}
	return bad
}
