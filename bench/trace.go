package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// The spans are recorded from outside the program under test: tracedEngine
// decorates the controller.Engine surface the controller drives and
// tracedBalancer the core.Balancer it plans with. One period yields
//
//	period                      boundary(i-1) → boundary(i)        (root)
//	├─ engine.data              boundary(i-1) → observe entry: all of Engine.Run for one period
//	└─ controller.observe       observe entry → observe return (= boundary i)
//	   ├─ engine.take_checkpoint
//	   ├─ engine.snapshot
//	   ├─ core.plan             (lockstep: planned inside observe)
//	   └─ engine.apply_plan
//	core.plan                   (pipelined: on the planner goroutine, child of
//	                             the period whose snapshot it plans on)
//
// engine.data and controller.observe share their timestamps with the root,
// so the control goroutine's spans tile the run without gaps by construction.

const (
	spanPeriod     = "period"
	spanData       = "engine.data"
	spanObserve    = "controller.observe"
	spanCheckpoint = "engine.take_checkpoint"
	spanSnapshot   = "engine.snapshot"
	spanPlan       = "core.plan"
	spanApplyPlan  = "engine.apply_plan"
)

// span is one traced interval. Start and End are nanoseconds since the
// recorder was created; Parent is the ID of the span that caused it (-1 for
// a root) and Period the engine period both belong to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Period int    `json:"period"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. The mutex is for the
// pipelined planner goroutine, which records beside the control goroutine.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<15)}
}

// open starts a span whose end is not known yet and returns its ID.
func (r *recorder) open(name string, parent, period int, start time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Period: period, Name: name, Start: int64(start.Sub(r.t0))})
	return id
}

func (r *recorder) close(id int, end time.Time) {
	r.mu.Lock()
	r.spans[id].End = int64(end.Sub(r.t0))
	r.mu.Unlock()
}

func (r *recorder) add(name string, parent, period int, start, end time.Time) {
	r.close(r.open(name, parent, period, start), end)
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its children cover (children clipped to the parent,
// overlapping children counted once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, at := int64(0), p.Start
		for _, k := range kids {
			start, end := max(k.Start, at), min(k.End, p.End)
			if end > start {
				covered += end - start
				at = end
			}
		}
		self[i] = time.Duration(p.End - p.Start - covered)
	}
	return self
}

// snapOwner remembers which period's observe call took a snapshot, so a plan
// computed later — on the planner goroutine in pipelined mode — is attributed
// to the period that caused it.
type snapOwner struct {
	snap             *core.Snapshot
	root, observe, p int
}

// tracer owns the recorder and the state the two decorators share.
type tracer struct {
	rec *recorder
	// Control-goroutine state: the open observe and period spans.
	root, observe, period int
	// ownMu guards what the planner goroutine shares with the control
	// goroutine: owners, a small ring of the latest snapshots, and plans, the
	// observations the balancer decorator collects.
	ownMu  sync.Mutex
	owners [4]snapOwner
	nOwn   int
	plans  []planObs
	// pipelined tells the balancer decorator which span to hang plans on.
	pipelined bool
}

// planObs is what the balancer decorator keeps of one Plan call.
type planObs struct {
	period      int
	dur         time.Duration
	moves       int
	evalD       float64
	hasEval     bool
	collocation float64
}

func newTracer(pipelined bool) *tracer {
	return &tracer{rec: newRecorder(), root: -1, observe: -1, pipelined: pipelined}
}

// tracedEngine embeds the engine, so every optional interface the controller
// asserts (CheckpointEngine, WeightedScaleEngine, SubPeriodEngine) still
// holds, and overrides the calls that are layer boundaries.
type tracedEngine struct {
	*engine.Engine
	t *tracer
}

func (e *tracedEngine) Run(ctx context.Context, periods int, observe func(*engine.PeriodStats) error) error {
	t := e.t
	boundary := time.Now()
	return e.Engine.Run(ctx, periods, func(ps *engine.PeriodStats) error {
		in := time.Now()
		t.period = ps.Period
		t.root = t.rec.open(spanPeriod, -1, ps.Period, boundary)
		t.rec.add(spanData, t.root, ps.Period, boundary, in)
		t.observe = t.rec.open(spanObserve, t.root, ps.Period, in)
		err := observe(ps)
		out := time.Now()
		t.rec.close(t.observe, out)
		t.rec.close(t.root, out)
		boundary = out
		return err
	})
}

func (e *tracedEngine) Snapshot() (*core.Snapshot, error) {
	t := e.t
	start := time.Now()
	s, err := e.Engine.Snapshot()
	t.rec.add(spanSnapshot, t.observe, t.period, start, time.Now())
	t.ownMu.Lock()
	t.owners[t.nOwn%len(t.owners)] = snapOwner{snap: s, root: t.root, observe: t.observe, p: t.period}
	t.nOwn++
	t.ownMu.Unlock()
	return s, err
}

func (e *tracedEngine) ApplyPlan(groupNode []int) error {
	start := time.Now()
	err := e.Engine.ApplyPlan(groupNode)
	e.t.rec.add(spanApplyPlan, e.t.observe, e.t.period, start, time.Now())
	return err
}

func (e *tracedEngine) TakeCheckpoint() engine.CheckpointStats {
	start := time.Now()
	cs := e.Engine.TakeCheckpoint()
	e.t.rec.add(spanCheckpoint, e.t.observe, e.t.period, start, time.Now())
	return cs
}

// tracedBalancer decorates the workload's balancer.
type tracedBalancer struct {
	core.Balancer
	t *tracer
}

func (b *tracedBalancer) Plan(ctx context.Context, s *core.Snapshot) (*core.Plan, error) {
	t := b.t
	start := time.Now()
	plan, err := b.Balancer.Plan(ctx, s)
	end := time.Now()

	t.ownMu.Lock()
	own := snapOwner{root: -1, observe: -1}
	for _, o := range t.owners {
		if o.snap == s {
			own = o
		}
	}
	parent := own.observe
	if t.pipelined {
		parent = own.root
	}
	obs := planObs{period: own.p, dur: end.Sub(start)}
	if plan != nil {
		obs.moves = len(plan.Moves)
		obs.collocation = core.CollocationOf(s, plan.GroupNode)
		if plan.Eval != nil {
			obs.evalD, obs.hasEval = plan.Eval.D, true
		}
	}
	t.plans = append(t.plans, obs)
	t.ownMu.Unlock()
	t.rec.add(spanPlan, parent, own.p, start, end)
	return plan, err
}
