package controller

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/engine"
)

// skewTopology builds a single-operator counting job whose key distribution
// is uniform until hotPeriod and then abruptly concentrates ~45% of the
// stream on a handful of keys that all hash to groups hosted by node 0 —
// a sudden transient hotspot on one node.
func skewTopology(perPeriod, kgs, nodes, hotPeriod int) *engine.Topology {
	// Find hot keys: distinct key groups that the round-robin initial
	// allocation places on node 0.
	var hotKeys []string
	seen := map[int]bool{}
	for i := 0; len(hotKeys) < 3 && i < 100000; i++ {
		k := fmt.Sprintf("viral-%05d", i)
		kg := int(codec.Hash(k) % uint64(kgs))
		if kg%nodes == 0 && !seen[kg] {
			seen[kg] = true
			hotKeys = append(hotKeys, k)
		}
	}
	t := engine.NewTopology()
	t.AddSource("src", func(period int, emit engine.Emit) {
		for i := 0; i < perPeriod; i++ {
			k := fmt.Sprintf("key-%04d", (i*7919+period)%997)
			if period >= hotPeriod && i%9 < 4 {
				k = hotKeys[i%len(hotKeys)]
			}
			emit(&engine.Tuple{Key: k, TS: int64(period*perPeriod + i)})
		}
	})
	t.AddOperator(&engine.Operator{
		Name:      "count",
		KeyGroups: kgs,
		Proc: func(tu *engine.Tuple, st *engine.State, emit engine.Emit) {
			st.Add(tu.Key, 1)
		},
	})
	t.Connect("src", "count")
	return t
}

// hotMoveLog wraps the engine to record what the controller's sub-period
// observer asked for at which boundary, so a failing run says what moved.
type hotMoveLog struct {
	*engine.Engine
	asked []string
}

func (l *hotMoveLog) SetSubObserver(fn engine.SubObserver) {
	if fn == nil {
		l.Engine.SetSubObserver(nil)
		return
	}
	l.Engine.SetSubObserver(func(s *core.Snapshot, period, sub int) []core.Move {
		moves := fn(s, period, sub)
		for _, mv := range moves {
			l.asked = append(l.asked, fmt.Sprintf("period %d sub-boundary %d: group %d node %d→%d", period, sub, mv.Group, mv.From, mv.To))
		}
		return moves
	})
}

// TestReactiveMovesHotGroupWithinSubPeriod is the load-skew regression test
// of the reactive tentpole: when transient skew appears inside period P,
// the reactive path must migrate load off the hot node within that same
// period (hot moves recorded in period P's stats), while the lockstep loop
// cannot react before the period P boundary — its first responding
// migrations execute a full period later, inside period P+1.
func TestReactiveMovesHotGroupWithinSubPeriod(t *testing.T) {
	const (
		perPeriod = 6000
		kgs       = 12
		nodes     = 3
		hotPeriod = 4 // 1-based engine period at which the skew appears
		periods   = 6
	)

	type result struct {
		hotMoves   map[int]int // period -> hot moves
		migrations map[int]int // period -> total migrations executed
		dist       map[int]float64
		m          *Metrics
		asked      []string // hot moves the controller asked for, in order
	}
	run := func(reactive bool) result {
		topo := skewTopology(perPeriod, kgs, nodes, hotPeriod)
		cfg := engine.Config{Nodes: nodes}
		if reactive {
			cfg.SubPeriods = 4
		}
		eng, err := engine.New(topo, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		e := &hotMoveLog{Engine: eng}
		res := result{hotMoves: map[int]int{}, migrations: map[int]int{}, dist: map[int]float64{}}
		ctrl := New(e, Options{
			// TimeLimit is a ceiling the solve never reaches: it returns on
			// convergence, and a converged plan is a function of snapshot and
			// seed — not of how loaded the machine running the tests is.
			Balancer:      &core.MILPBalancer{TimeLimit: 5 * time.Second, Seed: 7},
			MaxMigrations: 4,
			SmoothAlpha:   1, // plan on raw loads: reactions are immediate
			OnPeriod: func(r PeriodReport) {
				res.hotMoves[r.Period] = r.Stats.HotMoves
				res.migrations[r.Period] = r.Stats.Migrations
				res.dist[r.Period] = r.LoadDistance
			},
		})
		m, err := ctrl.Run(context.Background(), periods)
		if err != nil {
			t.Fatal(err)
		}
		res.m, res.asked = m, e.asked
		return res
	}

	lockstep := run(false)
	reactive := run(true)
	// Every boundary reads exact counters at a drained segment: a second run
	// asks for the same hot moves and measures the same distances.
	if again := run(true); !reflect.DeepEqual(again.asked, reactive.asked) || !reflect.DeepEqual(again.dist, reactive.dist) {
		t.Fatalf("reactive run does not reproduce: hot moves asked\n%s\nthen\n%s\nper-period distance %v then %v",
			strings.Join(reactive.asked, "\n"), strings.Join(again.asked, "\n"), reactive.dist, again.dist)
	}

	if lockstep.m.HotMoves != 0 {
		t.Fatalf("lockstep run recorded %d hot moves", lockstep.m.HotMoves)
	}
	// The lockstep loop cannot react inside the skew period: the plan that
	// addresses the skew is computed at the hotPeriod boundary and its
	// migrations execute inside hotPeriod+1, where the measured imbalance
	// finally drops.
	if lockstep.dist[hotPeriod] < 10 {
		t.Fatalf("lockstep skew-period load distance %.2f too low — the scenario's hotspot did not materialize", lockstep.dist[hotPeriod])
	}
	if lockstep.dist[hotPeriod+1] >= lockstep.dist[hotPeriod] {
		t.Fatalf("lockstep never reacted: distance %.2f at period %d vs %.2f at %d",
			lockstep.dist[hotPeriod+1], hotPeriod+1, lockstep.dist[hotPeriod], hotPeriod)
	}

	// Reactive: hot moves executed inside the skew period itself...
	if got := reactive.hotMoves[hotPeriod]; got < 1 {
		t.Fatalf("reactive path executed %d hot moves inside the skew period, want >= 1 (it must react within a sub-period interval)", got)
	}
	if reactive.m.HotMoves < 1 {
		t.Fatalf("run metrics recorded %d hot moves", reactive.m.HotMoves)
	}
	// ...so load migrated off the hot node a full period earlier than
	// lockstep could: the skew period's measured imbalance comes out
	// clearly below the lockstep run's (same workload, same seeds).
	if reactive.dist[hotPeriod] >= 0.9*lockstep.dist[hotPeriod] {
		t.Fatalf("reactive skew-period load distance %.2f not clearly below lockstep %.2f; hot moves asked for:\n%s\nper-period distance: reactive %v, lockstep %v",
			reactive.dist[hotPeriod], lockstep.dist[hotPeriod], strings.Join(reactive.asked, "\n"), reactive.dist, lockstep.dist)
	}
	t.Logf("skew period %d: lockstep dist %.2f -> %.2f one period later (%d migrations); reactive dist %.2f within the period (%d hot moves)",
		hotPeriod, lockstep.dist[hotPeriod], lockstep.dist[hotPeriod+1],
		lockstep.migrations[hotPeriod+1], reactive.dist[hotPeriod], reactive.hotMoves[hotPeriod])
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

// TestTriggerFiresOnTransientSkewOnly: unit test of the trigger policy —
// balanced loads never fire; a sudden spike fires once and then respects
// the cooldown; a persistent plateau stops firing once the EWMA absorbs it.
func TestTriggerFiresOnTransientSkewOnly(t *testing.T) {
	tr := &trigger{}
	balanced := []float64{10, 10.5, 9.5, 10}
	for i := 0; i < 5; i++ {
		if tr.Observe(balanced, nil) {
			t.Fatalf("trigger fired on balanced loads (round %d)", i)
		}
	}
	spike := []float64{30, 10.5, 9.5, 10}
	if !tr.Observe(spike, nil) {
		t.Fatal("trigger did not fire on a 3x spike")
	}
	// Cooldown: the next two boundaries stay quiet even though the skew
	// persists.
	if tr.Observe(spike, nil) || tr.Observe(spike, nil) {
		t.Fatal("trigger ignored its cooldown")
	}
	// After the cooldown the EWMA has absorbed most of the plateau; keep
	// observing until the deviation condition puts it to rest.
	fired := 0
	for i := 0; i < 10; i++ {
		if tr.Observe(spike, nil) {
			fired++
		}
	}
	if fired > 2 {
		t.Fatalf("trigger fired %d more times on a persistent plateau; the EWMA should absorb it", fired)
	}
	// Kill-marked nodes are ignored entirely.
	tr2 := &trigger{}
	hotKilled := []float64{100, 10, 10, 10}
	kill := []bool{true, false, false, false}
	if tr2.Observe(hotKilled, kill) {
		t.Fatal("trigger fired on a draining node's load")
	}
}

// BenchmarkTrigger measures the per-boundary cost of the trigger policy
// (it runs at every sub-period boundary, with the whole period stalled).
func BenchmarkTrigger(b *testing.B) {
	tr := &trigger{}
	loads := make([]float64, 64)
	for i := range loads {
		loads[i] = 10 + float64(i%7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loads[i%64] = 10 + float64(i%13)
		tr.Observe(loads, nil)
	}
}
