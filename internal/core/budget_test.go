package core

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// TestManualScalerIndexedByPeriod: the script is played by period, with
// catch-up, so a planner that is invoked less often than once per period (a
// pipelined controller dropping snapshots) loses no scripted decision and
// keeps their order; invoked every period it returns exactly Script[period-1].
func TestManualScalerIndexedByPeriod(t *testing.T) {
	add := ScaleDecision{AddNodes: 2}
	mark := ScaleDecision{MarkForRemoval: []int{3, 4}}
	script := func() []ScaleDecision {
		s := make([]ScaleDecision, 8)
		s[2], s[5] = add, mark
		return s
	}
	decide := func(m *ManualScaler, period int) ScaleDecision {
		return m.Decide(&Snapshot{Period: period}, nil)
	}

	lockstep := &ManualScaler{Script: script()}
	for period := 1; period <= 10; period++ {
		want := ScaleDecision{}
		if period <= 8 {
			want = script()[period-1]
		}
		if got := decide(lockstep, period); !reflect.DeepEqual(got, want) {
			t.Fatalf("lockstep period %d: got %+v, want %+v", period, got, want)
		}
	}

	// Invoked at periods 1, 7, 8, 20: the add that was due at 3 comes out at
	// 7, the mark that was due at 6 right after it, then nothing.
	skipping := &ManualScaler{Script: script()}
	for _, c := range []struct {
		period int
		want   ScaleDecision
	}{{1, ScaleDecision{}}, {7, add}, {8, mark}, {20, ScaleDecision{}}} {
		if got := decide(skipping, c.period); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("skipping period %d: got %+v, want %+v", c.period, got, c.want)
		}
	}

	// Snapshots that carry no period count one period per call.
	counting := &ManualScaler{Script: script()}
	for call := 1; call <= 8; call++ {
		if got := decide(counting, 0); !reflect.DeepEqual(got, script()[call-1]) {
			t.Fatalf("call %d without a period: got %+v, want %+v", call, got, script()[call-1])
		}
	}
}

// TestALBICConvergedPlanReturnsEarly: TimeLimit is a ceiling. On a snapshot
// whose solves converge — 64 groups on 8 nodes, the benchmark's size — a
// 25 ms limit is not spent: the plan is back in under 10 ms, and it is the
// plan an effectively unlimited budget produces.
func TestALBICConvergedPlanReturnsEarly(t *testing.T) {
	plan := func(limit time.Duration) (*Plan, time.Duration) {
		s := synthSnapshot(64, 8, 3)
		s.MaxMigrations = 8
		start := time.Now()
		p, err := (&ALBIC{TimeLimit: limit, Seed: 1}).Plan(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		return p, time.Since(start)
	}
	unlimited, _ := plan(time.Minute)
	// Wall-clock on a shared machine: judge the best of a few runs, and not
	// at all under -short (CI's race-detector leg, five to ten times slower).
	best := time.Hour
	for run := 0; run < 5; run++ {
		p, took := plan(25 * time.Millisecond)
		best = min(best, took)
		if took < 25*time.Millisecond {
			samePlan(t, "25 ms vs unlimited", unlimited, p)
		}
	}
	if !testing.Short() && best >= 10*time.Millisecond {
		t.Fatalf("converged plan took %v at best, want < 10ms of its 25ms limit", best)
	}
}
