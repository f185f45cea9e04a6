package controller

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
)

// counter tallies sink deliveries thread-safely (sinks run on node
// goroutines).
type counter struct {
	mu sync.Mutex
	n  int64
}

func (c *counter) add() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) get() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// testTopology: a deterministic word source with a hot head feeding a
// stateful counter feeding a counting sink. perPeriod tuples per period.
func testTopology(perPeriod, kgs int, col *counter) *engine.Topology {
	t := engine.NewTopology()
	t.AddSource("src", func(period int, emit engine.Emit) {
		for i := 0; i < perPeriod; i++ {
			w := fmt.Sprintf("w%03d", (i*31+period)%97)
			if i%4 == 0 {
				w = fmt.Sprintf("w%03d", i%7) // hot head
			}
			emit(&engine.Tuple{Key: w, TS: int64(period*perPeriod + i)})
		}
	})
	t.AddOperator(&engine.Operator{
		Name:      "count",
		KeyGroups: kgs,
		Proc: func(tu *engine.Tuple, st *engine.State, emit engine.Emit) {
			st.Add(tu.Key, 1)
			emit(tu)
		},
	})
	t.AddOperator(&engine.Operator{
		Name:      "sink",
		KeyGroups: kgs / 2,
		Proc: func(tu *engine.Tuple, st *engine.State, emit engine.Emit) {
			if col != nil {
				col.add()
			}
		},
	})
	t.Connect("src", "count")
	t.Connect("count", "sink")
	return t
}

// skewedInitial stacks every key group on node 0 so the balancer has real
// work to do.
func skewedInitial(t *engine.Topology) []int {
	if err := t.Build(); err != nil {
		panic(err)
	}
	return make([]int, t.NumGroups())
}

// TestLockstepMatchesManualLoop: the controller's lockstep mode must
// reproduce, metric for metric, the hand-written adaptation loop it
// replaced (snapshot -> record -> EWMA -> budgeted plan -> apply). Flux is
// used because it is a deterministic function of the snapshot (no anytime
// solver time limits); the comparison allows the engine's 1e-14-scale
// accumulation-order jitter.
func TestLockstepMatchesManualLoop(t *testing.T) {
	const periods, warmup, budget = 8, 2, 3

	run := func() *Metrics {
		topo := testTopology(600, 12, nil)
		e, err := engine.New(topo, engine.Config{Nodes: 3}, skewedInitial(topo))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		ctrl := New(e, Options{
			Balancer:      baseline.Flux{},
			Warmup:        warmup,
			MaxMigrations: budget,
		})
		m, err := ctrl.Run(context.Background(), warmup+periods)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	manual := func() *Metrics {
		topo := testTopology(600, 12, nil)
		e, err := engine.New(topo, engine.Config{Nodes: 3}, skewedInitial(topo))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		bal := baseline.Flux{}
		m := &Metrics{}
		baseAvg, cumLat := 0.0, 0.0
		var smooth []float64
		for p := 0; p < warmup+periods; p++ {
			ps, err := e.RunPeriod()
			if err != nil {
				t.Fatal(err)
			}
			if p == 0 {
				e.CalibrateCapacity(60)
			}
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if p >= warmup {
				if baseAvg == 0 {
					if avg := snap.AverageLoad(); avg > 0 {
						baseAvg = avg
					}
				}
				m.LoadDistance = append(m.LoadDistance, snap.LoadDistance())
				m.Collocation = append(m.Collocation, snap.CollocationFactor())
				idx := 0.0
				if baseAvg > 0 {
					idx = 100 * snap.AverageLoad() / baseAvg
				}
				m.LoadIndex = append(m.LoadIndex, idx)
				m.Migrations = append(m.Migrations, float64(ps.Migrations))
				cumLat += ps.MigrationLatency
				m.CumLatencyM = append(m.CumLatencyM, cumLat/60)
			}
			snap.MaxMigrations = budget
			if smooth == nil {
				smooth = make([]float64, len(snap.Groups))
				for k := range snap.Groups {
					smooth[k] = snap.Groups[k].Load
				}
			} else {
				const alpha = 0.5
				for k := range snap.Groups {
					smooth[k] = alpha*snap.Groups[k].Load + (1-alpha)*smooth[k]
					snap.Groups[k].Load = smooth[k]
				}
			}
			plan, err := bal.Plan(context.Background(), snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ApplyPlan(plan.GroupNode); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}

	got, want := run(), manual()
	for name, pair := range map[string][2][]float64{
		"LoadDistance": {got.LoadDistance, want.LoadDistance},
		"Collocation":  {got.Collocation, want.Collocation},
		"LoadIndex":    {got.LoadIndex, want.LoadIndex},
		"Migrations":   {got.Migrations, want.Migrations},
		"CumLatencyM":  {got.CumLatencyM, want.CumLatencyM},
	} {
		g, w := pair[0], pair[1]
		if len(g) != periods || len(w) != periods {
			t.Fatalf("%s: lengths %d/%d, want %d", name, len(g), len(w), periods)
		}
		for i := range g {
			if d := g[i] - w[i]; d > 1e-6 || d < -1e-6 {
				t.Errorf("%s[%d] = %v, manual loop got %v", name, i, g[i], w[i])
			}
		}
	}
}

// gatedBalancer is a planner whose latency is a gate instead of a sleep: it
// announces every Plan it is asked for and holds it until the test lets it go.
type gatedBalancer struct {
	inner   core.Balancer
	entered chan struct{}             // a token per Plan entered (dropped when nobody listens)
	release chan struct{}             // a token lets one held Plan return; closed, the gate is open
	last    atomic.Pointer[core.Plan] // what the last released Plan returned
}

func newGatedBalancer() *gatedBalancer {
	return &gatedBalancer{
		inner:   &core.MILPBalancer{TimeLimit: time.Millisecond, Seed: 1},
		entered: make(chan struct{}, 64), // sends never block: Plan drops the token when full
		release: make(chan struct{}),
	}
}

func (g *gatedBalancer) Name() string { return "gated-" + g.inner.Name() }

func (g *gatedBalancer) Plan(ctx context.Context, snap *core.Snapshot) (*core.Plan, error) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	plan, err := g.inner.Plan(ctx, snap)
	g.last.Store(plan)
	return plan, err
}

// slowPlanEngine lets the gated balancer's held plan go only when the next
// boundary takes its snapshot: every plan outlasts a whole period of data.
type slowPlanEngine struct {
	*engine.Engine
	bal *gatedBalancer
	// held says the previous boundary handed a snapshot over. The test sets
	// it, so a controller that skips a hand-off fails its checks instead of
	// waiting here for a plan nobody asked for.
	held bool
}

func (e *slowPlanEngine) Snapshot() (*core.Snapshot, error) {
	if e.held {
		e.bal.release <- struct{}{}
	}
	return e.Engine.Snapshot()
}

// TestPipelinedPlanningOverlapsDataPath is the tentpole regression test,
// stated without a clock. Lockstep delivers the boundary that asked for a
// plan only once the plan is released. Pipelined hands off at a fixed lag of
// one: period k's plan is held until period k+1 has run in full, boundary
// k+1 waits for it and carries exactly that outcome, and every boundary
// after the first carries one.
func TestPipelinedPlanningOverlapsDataPath(t *testing.T) {
	newEngine := func(t *testing.T) *engine.Engine {
		topo := testTopology(2000, 8, nil)
		e, err := engine.New(topo, engine.Config{Nodes: 2}, skewedInitial(topo))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}

	t.Run("lockstep", func(t *testing.T) {
		const periods = 4
		var delivered atomic.Int64
		bal := newGatedBalancer()
		ctrl := New(newEngine(t), Options{Balancer: bal, MaxMigrations: 2, OnPeriod: func(PeriodReport) { delivered.Add(1) }})
		ctx, cancel := context.WithCancel(context.Background())
		finished := make(chan struct{})
		var err error
		go func() { defer close(finished); _, err = ctrl.Run(ctx, periods) }()
		defer func() { cancel(); <-finished }() // a held plan ends with its context
		for k := int64(1); k <= periods; k++ {
			<-bal.entered // period k ended and its plan is held
			if got := delivered.Load(); got != k-1 {
				t.Fatalf("plan %d is held and %d boundaries were delivered, want %d: lockstep waits for its plan", k, got, k-1)
			}
			bal.release <- struct{}{}
		}
		if <-finished; err != nil {
			t.Fatal(err)
		}
		if delivered.Load() != periods {
			t.Fatalf("%d boundaries delivered over %d periods", delivered.Load(), periods)
		}
	})

	t.Run("pipelined", func(t *testing.T) {
		const periods = 6
		bal := newGatedBalancer()
		e := &slowPlanEngine{Engine: newEngine(t), bal: bal}
		ctrl := New(e, Options{Balancer: bal, MaxMigrations: 2, Pipelined: true, OnPeriod: func(r PeriodReport) {
			e.held = r.Period == 1 || r.Outcome != nil // a boundary that applied no outcome handed nothing over
			switch {
			case r.Period == 1 && r.Outcome != nil:
				t.Errorf("boundary 1 applied an outcome; the first is due at boundary 2")
			case r.Period > 1 && r.Outcome == nil:
				t.Errorf("boundary %d applied no outcome while period %d's plan was in flight", r.Period, r.Period-1)
			case r.Period > 1 && r.Outcome.Plan != bal.last.Load():
				t.Errorf("boundary %d applied a plan other than period %d's", r.Period, r.Period-1)
			}
		}})
		m, err := ctrl.Run(context.Background(), periods)
		if err != nil {
			t.Fatal(err)
		}
		if m.PlansApplied != periods-1 {
			t.Fatalf("%d plans applied over %d periods, want %d: one per boundary after the first", m.PlansApplied, periods, periods-1)
		}
	})
}

// TestCancelWhileAwaitingPlan: a run cancelled while a boundary awaits its
// plan returns ctx.Err() itself, as it does between periods, in both modes.
func TestCancelWhileAwaitingPlan(t *testing.T) {
	for _, mode := range []struct {
		name      string
		pipelined bool
	}{{"lockstep", false}, {"pipelined", true}} {
		t.Run(mode.name, func(t *testing.T) {
			topo := testTopology(400, 8, nil)
			e, err := engine.New(topo, engine.Config{Nodes: 2}, skewedInitial(topo))
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			bal := newGatedBalancer()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// The first plan is never released: lockstep awaits it at boundary
			// 1, pipelined at boundary 2.
			go func() { <-bal.entered; cancel() }()
			if _, err := New(e, Options{Balancer: bal, Pipelined: mode.pipelined}).Run(ctx, 0); err != context.Canceled {
				t.Fatalf("Run = %v, want context.Canceled", err)
			}
		})
	}
}

// scriptScaler replays a scripted sequence of decisions, one per call: the
// controller plans once per period in either mode, so script[i] is the
// decision on period i+1's snapshot. Past the script's end it decides nothing.
type scriptScaler struct {
	script []core.ScaleDecision
	calls  int
}

func (m *scriptScaler) Decide(*core.Snapshot, *core.Plan) core.ScaleDecision {
	m.calls++
	if m.calls > len(m.script) {
		return core.ScaleDecision{}
	}
	return m.script[m.calls-1]
}

// TestElasticityThroughController exercises scale-out and scale-in
// mid-run: nodes are added under the controller, later marked for removal,
// drained by the balancer and terminated — without tuple loss, and without
// draining nodes ever receiving new key groups.
func TestElasticityThroughController(t *testing.T) {
	for _, mode := range []struct {
		name      string
		pipelined bool
	}{{"lockstep", false}, {"pipelined", true}} {
		t.Run(mode.name, func(t *testing.T) {
			const perPeriod = 400
			col := &counter{}
			topo := testTopology(perPeriod, 12, col)
			if err := topo.Build(); err != nil {
				t.Fatal(err)
			}
			e, err := engine.New(topo, engine.Config{Nodes: 3}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			// Scripted elasticity: grow by two nodes at the third adaptation,
			// mark them for removal at the sixth.
			script := make([]core.ScaleDecision, 6)
			script[2] = core.ScaleDecision{AddNodes: 2}
			script[5] = core.ScaleDecision{MarkForRemoval: []int{3, 4}}

			var added []int
			terminated := map[int]bool{}
			var marked bool
			prevOnKilled := map[int]bool{}
			const periods = 16
			ctrl := New(e, Options{
				Balancer:      &core.MILPBalancer{TimeLimit: 5 * time.Millisecond, Seed: 2},
				Scaler:        &scriptScaler{script: script},
				MaxMigrations: 6,
				Pipelined:     mode.pipelined,
				OnPeriod: func(r PeriodReport) {
					added = append(added, r.Added...)
					for _, id := range r.Terminated {
						terminated[id] = true
					}
					if r.Outcome != nil && len(r.Outcome.Scale.MarkForRemoval) > 0 {
						marked = true
						// Seed the draining set with the groups currently on
						// the marked nodes.
						prevOnKilled = groupsOn(e, 3, 4)
						return
					}
					if !marked {
						return
					}
					// Draining nodes must never gain key groups: the set of
					// groups they host only shrinks.
					now := groupsOn(e, 3, 4)
					for gid := range now {
						if !prevOnKilled[gid] {
							t.Errorf("%s: draining node gained group %d", mode.name, gid)
						}
					}
					prevOnKilled = now
				},
			})
			if _, err := ctrl.Run(context.Background(), periods); err != nil {
				t.Fatal(err)
			}

			if want := []int{3, 4}; len(added) != 2 || added[0] != want[0] || added[1] != want[1] {
				t.Fatalf("added nodes %v, want %v", added, want)
			}
			if !terminated[3] || !terminated[4] {
				t.Fatalf("marked nodes not terminated by run end: %v", terminated)
			}
			if got, want := col.get(), int64(periods*perPeriod); got != want {
				t.Fatalf("sink received %d tuples, want %d (tuple loss across scaling)", got, want)
			}
			// Added nodes have weight 1: the cluster the planner sees has five
			// node slots and stays homogeneous.
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if snap.NumNodes != 5 || snap.Capacity != nil {
				t.Fatalf("snapshot has %d nodes, capacity %v; want 5 nodes and no capacity vector", snap.NumNodes, snap.Capacity)
			}
		})
	}
}

// lastSnapBalancer keeps every group where it is and remembers the last
// snapshot it planned on.
type lastSnapBalancer struct{ last *core.Snapshot }

func (b *lastSnapBalancer) Name() string { return "last-snap" }

func (b *lastSnapBalancer) Plan(_ context.Context, s *core.Snapshot) (*core.Plan, error) {
	b.last = s
	groupNode := make([]int, len(s.Groups))
	for k, g := range s.Groups {
		groupNode[k] = g.Node
	}
	return core.PlanFromAssignment(s, groupNode, nil), nil
}

// TestPatchSnapshotScalesOutLikeStep: after a scale-out is applied, the
// snapshot the pipelined controller hands to its planner describes the
// cluster Framework.Step re-planned over — the added nodes have weight 1, so
// a homogeneous cluster stays so and a heterogeneous one gains 1s.
func TestPatchSnapshotScalesOutLikeStep(t *testing.T) {
	for _, tc := range []struct {
		capacity, want []float64
	}{
		{nil, nil},
		{[]float64{1, 3}, []float64{1, 3, 1, 1}},
	} {
		snap := &core.Snapshot{
			NumNodes: 2,
			Capacity: tc.capacity,
			Groups:   []core.GroupStat{{Node: 0, Load: 30}, {Node: 1, Load: 20}},
			Ops:      []core.OpStat{{Name: "op", Groups: []int{0, 1}}},
		}
		bal := &lastSnapBalancer{}
		fw := &core.Framework{Balancer: bal, Scaler: &scriptScaler{
			script: []core.ScaleDecision{{AddNodes: 2}},
		}}
		out, err := fw.Step(context.Background(), snap.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if err := patchSnapshot(snap, out); err != nil {
			t.Fatal(err)
		}
		replan := bal.last
		if snap.NumNodes != replan.NumNodes || !slices.Equal(snap.Capacity, tc.want) ||
			!slices.Equal(replan.Capacity, tc.want) || !slices.Equal(snap.Kill, replan.Kill) {
			t.Errorf("capacity %v: patched to %d nodes, capacity %v, kill %v; Step re-planned over %d nodes, capacity %v, kill %v; want capacity %v",
				tc.capacity, snap.NumNodes, snap.Capacity, snap.Kill, replan.NumNodes, replan.Capacity, replan.Kill, tc.want)
		}
	}
}

// groupsOn returns the key groups currently targeted at any of the ids.
func groupsOn(e *engine.Engine, ids ...int) map[int]bool {
	on := map[int]bool{}
	alloc := e.Allocation()
	for gid, n := range alloc {
		for _, id := range ids {
			if n == id {
				on[gid] = true
			}
		}
	}
	return on
}

// TestControllerNilBalancerCollectsMetrics: with no balancer the controller
// still records the metric series (e.g. the PoTC runs plan nothing).
func TestControllerNilBalancerCollectsMetrics(t *testing.T) {
	topo := testTopology(300, 8, nil)
	e, err := engine.New(topo, engine.Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctrl := New(e, Options{Warmup: 1})
	m, err := ctrl.Run(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.LoadDistance) != 3 || len(m.Migrations) != 3 {
		t.Fatalf("recorded %d/%d metric periods, want 3", len(m.LoadDistance), len(m.Migrations))
	}
	if m.PlansApplied != 0 {
		t.Fatalf("plans applied without a balancer: %d", m.PlansApplied)
	}
}

// TestControllerContextCancel: cancelling the context stops a continuous
// (periods <= 0) run.
func TestControllerContextCancel(t *testing.T) {
	topo := testTopology(100, 8, nil)
	e, err := engine.New(topo, engine.Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	ctrl := New(e, Options{
		OnPeriod: func(r PeriodReport) {
			n++
			if n == 3 {
				cancel()
			}
		},
	})
	if _, err := ctrl.Run(ctx, 0); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if n < 3 {
		t.Fatalf("observed %d periods before cancel, want >= 3", n)
	}
}

// stubbornBalancer models a paper-scale solver (tens of seconds of CPLEX
// time) that never finishes on its own: Plan blocks until its context is
// cancelled. The cancellation machinery must abort it; a solve it fails to
// abort hangs the test.
type stubbornBalancer struct {
	mu        sync.Mutex
	cancelled int
}

func (b *stubbornBalancer) Name() string { return "stubborn" }

func (b *stubbornBalancer) Plan(ctx context.Context, s *core.Snapshot) (*core.Plan, error) {
	<-ctx.Done()
	b.mu.Lock()
	b.cancelled++
	b.mu.Unlock()
	return nil, ctx.Err()
}

func (b *stubbornBalancer) cancellations() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cancelled
}

// TestRunEndAbortsInFlightSolve: a pipelined solve still running when the
// last period ends is aborted through the run's context — the one solve
// handed over is cancelled, and no plan is applied (it was due at a boundary
// the run does not reach). One period: every later boundary would wait for
// the solve. The balancer never returns on its own, so a run that does not
// cancel it never ends: no clock decides the test.
func TestRunEndAbortsInFlightSolve(t *testing.T) {
	const periods = 1
	topo := testTopology(800, 8, nil)
	e, err := engine.New(topo, engine.Config{Nodes: 2}, skewedInitial(topo))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bal := &stubbornBalancer{}
	ctrl := New(e, Options{Balancer: bal, Pipelined: true})
	m, err := ctrl.Run(context.Background(), periods)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled := bal.cancellations(); cancelled != 1 {
		t.Fatalf("%d solves cancelled, want 1", cancelled)
	}
	if m.PlansApplied != 0 {
		t.Fatalf("%d plans applied, want 0", m.PlansApplied)
	}
}
