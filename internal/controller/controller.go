// Package controller implements the paper's integrative adaptation loop
// (Algorithm 1 driven over a live engine) as a reusable control plane: it
// owns statistics-snapshot building, EWMA smoothing of planner inputs,
// capacity calibration, the migration budget, balancer invocation through
// core.Framework, and horizontal scaling (AddNodes / drain / terminate).
//
// Planning has one path: at every period boundary the snapshot goes to a
// planner goroutine, and its outcome is applied at a boundary a fixed number
// of periods later. The two modes differ only in that lag. Lockstep awaits
// the outcome at the boundary that handed the snapshot over (lag 0) — the
// paper's loop: run a period, snapshot, plan, apply, with the engine
// quiescent while the planner (5-60 ms MILP budgets, longer at paper scale)
// runs. Pipelined lets period N+1's sources and operators run meanwhile and
// applies period N's outcome at boundary N+1 (lag 1; the engine's
// staged-migration diff defers the moves' execution to period N+2). A planner
// faster than a period then adds no latency to the data path; a slower one
// holds boundary N+1 until it is done. Either way every snapshot is planned
// on and every outcome lands at the boundary its lag names. A snapshot is a
// function of the input and the plans so far — a record costs the same
// whichever records share its frame — so a clock-free balancer (Flux, COLA,
// PoTC, none) plans the same in either mode on every run, core count and
// layout. ALBIC and MILP still stop at a wall-clock deadline, and a solve cut
// by it depends on the machine. The planner runs under the Run context alone: a
// solve still in flight when the run ends is cancelled and its outcome
// discarded.
//
// cmd/albic-run, internal/experiments and every example but
// examples/faulttolerance run their adaptation loops through this package;
// faulttolerance drives its engine itself, because it crashes a node between
// a period and its checkpoint.
package controller

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// Engine is the data-plane surface the controller drives. *engine.Engine
// implements it; tests may substitute fakes.
type Engine interface {
	// Run executes periods continuously, invoking observe between periods
	// (see engine.Engine.Run).
	Run(ctx context.Context, periods int, observe func(*engine.PeriodStats) error) error
	// Snapshot converts the last period's statistics into a core.Snapshot.
	Snapshot() (*core.Snapshot, error)
	// ApplyPlan stages a target allocation for the next period boundary.
	ApplyPlan(groupNode []int) error
	// CalibrateCapacity rescales the load-percentage unit conversion.
	CalibrateCapacity(targetAvgPercent float64)
	// AddNodes provisions n new worker nodes of capacity weight 1
	// (scale-out, core.ScaleDecision.AddNodes) and returns their ids.
	AddNodes(n int) ([]int, error)
	// MarkForRemoval flags nodes for draining (scale-in).
	MarkForRemoval(ids []int)
	// TerminateNode shuts down a drained node; errors while it still
	// holds key groups.
	TerminateNode(id int) error
	// TakeCheckpoint incrementally checkpoints every key group's state
	// between periods (Options.CheckpointEvery).
	TakeCheckpoint() engine.CheckpointStats
}

// Options configures a Controller.
type Options struct {
	// Balancer plans key-group allocations each period. nil disables
	// planning (the controller only collects statistics).
	Balancer core.Balancer
	// Scaler makes horizontal-scaling decisions (optional). Scaling is
	// integrative: the framework re-plans over the adjusted cluster.
	Scaler core.Scaler
	// Warmup is the number of initialization periods whose metrics are not
	// recorded (the paper drops them).
	Warmup int
	// TargetAvgLoad calibrates capacity after the first period so reported
	// load percentages sit in a realistic band. 0 means the default 60;
	// negative disables calibration.
	TargetAvgLoad float64
	// MaxMigrations / MaxMigrCost bound migrations per adaptation
	// (<= 0: unrestricted); MaxMigrCost counts the bytes the moves ship
	// synchronously (core.Snapshot.MaxMigrCost).
	MaxMigrations int
	MaxMigrCost   float64
	// SmoothAlpha is the EWMA factor applied to per-group loads before
	// planning (the controller's SPL averaging): input = α·new + (1-α)·old.
	// 0 means the default 0.5; 1 plans on raw loads.
	SmoothAlpha float64
	// Pipelined overlaps planning with the next period's data flow instead
	// of stopping the data path while the balancer runs: period N's outcome
	// applies at boundary N+1, which waits for a solve still running.
	Pipelined bool

	// CheckpointEvery, when > 0, makes the controller own the checkpoint
	// cadence: every that-many periods it takes an incremental checkpoint
	// of all key-group state (engine.TakeCheckpoint). Besides fault
	// tolerance, a warm checkpoint is what arms checkpoint-assisted
	// migration — a planned move of a checkpointed group ships the group's
	// checkpoint as its base beside the delta, in one message at the
	// boundary that runs it, so lockstep and pipelined modes behave
	// identically — and the planner prices checkpointed groups at delta
	// cost.
	CheckpointEvery int

	// OnPeriod, when non-nil, observes every period boundary (after any
	// plan application) — for printing progress or driving external
	// monitoring. It runs on the control goroutine; keep it cheap.
	OnPeriod func(PeriodReport)
}

func (o *Options) defaults() {
	if o.TargetAvgLoad == 0 {
		o.TargetAvgLoad = 60
	}
	if o.SmoothAlpha == 0 {
		o.SmoothAlpha = 0.5
	}
}

// PeriodReport is the per-period view handed to Options.OnPeriod.
type PeriodReport struct {
	// Period is the engine's 1-based period number.
	Period int
	// Stats is the period's merged engine statistics.
	Stats *engine.PeriodStats
	// LoadDistance / Collocation / AverageLoad are the paper's metrics
	// computed from this period's snapshot.
	LoadDistance float64
	Collocation  float64
	AverageLoad  float64
	// Outcome is the adaptation outcome applied at this boundary: this
	// period's in lockstep, the previous period's when pipelined. nil when
	// planning is disabled and at a pipelined run's first boundary.
	Outcome *core.Outcome
	// PlanLatency is the solver time spent producing Outcome, in both modes.
	PlanLatency time.Duration
	// Added / Terminated list nodes provisioned / shut down at this
	// boundary.
	Added      []int
	Terminated []int
	// Checkpoint describes the incremental checkpoint taken at this
	// boundary (nil when the cadence did not fire).
	Checkpoint *engine.CheckpointStats
}

// Metrics is the recorded per-period series of one controller run (the
// series the paper's figures plot), indexed from the first post-warmup
// period.
type Metrics struct {
	LoadDistance []float64
	Collocation  []float64
	LoadIndex    []float64 // avg load relative to the first recorded period
	Migrations   []float64
	CumLatencyM  []float64 // cumulative migration latency, minutes
	// PlansApplied counts adaptation outcomes applied over the whole run:
	// one per period in lockstep, one fewer when pipelined (the last
	// period's outcome would apply at a boundary the run does not reach).
	PlansApplied int
	// Checkpoints counts the incremental checkpoints taken
	// (Options.CheckpointEvery); CkptBytes is the total volume they
	// appended to the store (full snapshots first, deltas after).
	Checkpoints int
	CkptBytes   int64
	// PrecopyBytes / MigratedDeltaBytes total the checkpoint volume shipped
	// as base and the synchronous delta volume of checkpoint-assisted
	// migrations over the run.
	PrecopyBytes       int64
	MigratedDeltaBytes int64
}

// Controller owns the adaptation loop over one engine.
type Controller struct {
	eng Engine
	opt Options
	fw  *core.Framework
}

// New builds a controller. The engine is normally freshly constructed; an
// engine with completed periods (e.g. after a bootstrap phase) is fine as
// long as calibration is disabled (TargetAvgLoad < 0) — otherwise the
// controller would re-calibrate capacity after what it believes is the
// first period.
func New(eng Engine, opt Options) *Controller {
	opt.defaults()
	c := &Controller{eng: eng, opt: opt}
	if opt.Balancer != nil {
		c.fw = &core.Framework{Balancer: opt.Balancer, Scaler: opt.Scaler}
	}
	return c
}

// plannerResult is one asynchronous planning outcome.
type plannerResult struct {
	out     *core.Outcome
	err     error
	latency time.Duration
}

// run is the per-Run mutable state of the adaptation loop.
type run struct {
	c   *Controller
	ctx context.Context // the Run context

	p       int // 0-based period index within this run
	baseAvg float64
	cumLat  float64
	smooth  []float64
	m       *Metrics

	// terminated remembers shut-down nodes: the framework keeps listing an
	// empty kill-marked node every period, but it is only reported (and
	// terminated) once.
	terminated map[int]bool

	// Planning state: req carries one snapshot per period to the planner
	// goroutine, res its outcome. At most one is in flight, and only a
	// pipelined run has one across a boundary.
	req chan *core.Snapshot
	res chan plannerResult
}

// Run executes the adaptation loop for the given number of periods
// (periods <= 0: until ctx is cancelled) and returns the recorded metric
// series.
func (c *Controller) Run(ctx context.Context, periods int) (*Metrics, error) {
	r := &run{c: c, ctx: ctx, m: &Metrics{}, terminated: map[int]bool{}}
	if c.fw != nil {
		pctx, cancel := context.WithCancel(ctx)
		r.req = make(chan *core.Snapshot, 1)
		r.res = make(chan plannerResult, 1)
		go func() {
			defer close(r.res)
			for snap := range r.req {
				t0 := time.Now()
				out, err := c.fw.Step(pctx, snap)
				r.res <- plannerResult{out: out, err: err, latency: time.Since(t0)}
			}
		}()
		defer func() {
			cancel() // the run is over; abort a solve in flight
			close(r.req)
			for range r.res { // drain its outcome until the planner has ended
			}
		}()
	}
	if err := c.eng.Run(ctx, periods, r.observe); err != nil {
		return r.m, err
	}
	return r.m, nil
}

// observe is the period-boundary hook: it calibrates once after the first
// period, snapshots, records metrics, applies the previous boundary's
// outcome when pipelined, smooths planner inputs and hands the snapshot to
// the planner — awaiting its outcome right here in lockstep.
func (r *run) observe(ps *engine.PeriodStats) error {
	c := r.c
	p := r.p
	r.p++
	rep := PeriodReport{Period: ps.Period, Stats: ps}

	if p == 0 && c.opt.TargetAvgLoad > 0 {
		c.eng.CalibrateCapacity(c.opt.TargetAvgLoad)
	}
	// Counted before any early return: state-transfer volume during an
	// unobserved warm-up period still happened.
	r.m.PrecopyBytes += ps.PrecopyBytes
	r.m.MigratedDeltaBytes += ps.MigratedDeltaBytes

	// Checkpoint cadence (also active during warm-up: the cadence is
	// operational, not a metric). A warm checkpoint is what arms
	// checkpoint-assisted migration for the moves planned below.
	if c.opt.CheckpointEvery > 0 && ps.Period%c.opt.CheckpointEvery == 0 {
		cs := c.eng.TakeCheckpoint()
		r.m.Checkpoints++
		r.m.CkptBytes += int64(cs.NewBytes)
		rep.Checkpoint = &cs
	}

	recording := p >= c.opt.Warmup
	if !recording && c.fw == nil && c.opt.OnPeriod == nil {
		// Nobody consumes the snapshot during an unbalanced, unobserved
		// warm-up period; skip building it.
		return nil
	}
	snap, err := c.eng.Snapshot()
	if err != nil {
		return err
	}
	dist, col, avg := snap.LoadDistance(), snap.CollocationFactor(), snap.AverageLoad()
	rep.LoadDistance, rep.Collocation, rep.AverageLoad = dist, col, avg
	if recording {
		if r.baseAvg == 0 && avg > 0 {
			r.baseAvg = avg
		}
		r.m.LoadDistance = append(r.m.LoadDistance, dist)
		r.m.Collocation = append(r.m.Collocation, col)
		idx := 0.0
		if r.baseAvg > 0 {
			idx = 100 * avg / r.baseAvg
		}
		r.m.LoadIndex = append(r.m.LoadIndex, idx)
		r.m.Migrations = append(r.m.Migrations, float64(ps.Migrations))
		r.cumLat += ps.MigrationLatency
		r.m.CumLatencyM = append(r.m.CumLatencyM, r.cumLat/60)
	}

	if c.fw != nil {
		if c.opt.Pipelined && p > 0 {
			// The previous boundary's outcome, awaited here. It is applied only
			// after the snapshot above, so the recorded metrics describe the
			// allocation the period actually ran under; the snapshot handed to
			// the planner is then patched to the staged target so the planner
			// never re-proposes the same moves.
			pr := <-r.res
			if err := r.applyOutcome(pr, &rep); err != nil {
				return err
			}
			if err := patchSnapshot(snap, pr.out); err != nil {
				return err
			}
		}
		snap.MaxMigrations = c.opt.MaxMigrations
		snap.MaxMigrCost = c.opt.MaxMigrCost
		r.smoothLoads(snap)
		r.req <- snap
		if !c.opt.Pipelined {
			// Lockstep awaits the outcome at the boundary that handed the
			// snapshot over. Nothing plans on this snapshot again, so it needs
			// no patch.
			if err := r.applyOutcome(<-r.res, &rep); err != nil {
				return err
			}
		}
	}
	if c.opt.OnPeriod != nil {
		c.opt.OnPeriod(rep)
	}
	return nil
}

// smoothLoads folds the snapshot's per-group loads into the EWMA the
// planner sees. The recorded metrics stay raw per-period measurements.
func (r *run) smoothLoads(snap *core.Snapshot) {
	alpha := r.c.opt.SmoothAlpha
	if alpha >= 1 {
		return
	}
	if r.smooth == nil {
		r.smooth = make([]float64, len(snap.Groups))
		for k := range snap.Groups {
			r.smooth[k] = snap.Groups[k].Load
		}
		return
	}
	for k := range snap.Groups {
		r.smooth[k] = alpha*snap.Groups[k].Load + (1-alpha)*r.smooth[k]
		snap.Groups[k].Load = r.smooth[k]
	}
}

// patchSnapshot folds an outcome just applied at this boundary into the
// snapshot about to be handed to the planner: the scaled cluster exactly as
// Framework.Step re-planned over it (added nodes of weight 1, fresh kill
// marks) and the staged allocation target. Group loads stay the raw
// measurements. The scaling decision is applied only to a snapshot of the
// cluster it was taken on, one that does not count the added nodes yet.
func patchSnapshot(snap *core.Snapshot, out *core.Outcome) error {
	if snap.NumNodes+out.Scale.AddNodes == out.NumNodes {
		if err := out.Scale.Apply(snap); err != nil {
			return err
		}
	}
	if out.Plan != nil {
		for k, n := range out.Plan.GroupNode {
			snap.Groups[k].Node = n
		}
	}
	return nil
}

// applyOutcome installs one completed planning result: terminate drained
// kill-marked nodes (Algorithm 1 lines 1-3), provision requested nodes so
// the plan's node indices resolve, mark nodes for draining, and stage the
// allocation plan for the next period boundary.
func (r *run) applyOutcome(pr plannerResult, rep *PeriodReport) error {
	if pr.err != nil {
		if err := r.ctx.Err(); err != nil {
			return err // the run ended while this boundary awaited its plan
		}
		return fmt.Errorf("controller: period %d plan: %w", rep.Period, pr.err)
	}
	out := pr.out
	rep.PlanLatency = pr.latency
	for _, id := range out.Terminate {
		if r.terminated[id] {
			continue
		}
		// A node that re-acquired groups since the outcome's snapshot (or
		// whose drain migration is still pending) is skipped; the framework
		// re-lists it once it is truly empty.
		if err := r.c.eng.TerminateNode(id); err == nil {
			r.terminated[id] = true
			rep.Terminated = append(rep.Terminated, id)
		}
	}
	if out.Scale.AddNodes > 0 {
		ids, err := r.c.eng.AddNodes(out.Scale.AddNodes)
		if err != nil {
			return fmt.Errorf("controller: scale-out: %w", err)
		}
		rep.Added = ids
	}
	if len(out.Scale.MarkForRemoval) > 0 {
		r.c.eng.MarkForRemoval(out.Scale.MarkForRemoval)
	}
	if out.Plan != nil {
		if err := r.c.eng.ApplyPlan(out.Plan.GroupNode); err != nil {
			return fmt.Errorf("controller: apply plan: %w", err)
		}
	}
	r.m.PlansApplied++
	rep.Outcome = out
	return nil
}
