package core

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// TestManualScalerIndexedByPeriod: the controller plans once per period in
// either mode, so the script is played one entry per call — the call for
// period p returns Script[p-1] — and decides nothing past its end.
func TestManualScalerIndexedByPeriod(t *testing.T) {
	script := make([]ScaleDecision, 8)
	script[2] = ScaleDecision{AddNodes: 2}
	script[5] = ScaleDecision{MarkForRemoval: []int{3, 4}}
	m := &ManualScaler{Script: script}
	for period := 1; period <= 10; period++ {
		want := ScaleDecision{}
		if period <= len(script) {
			want = script[period-1]
		}
		if got := m.Decide(&Snapshot{}, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("period %d: got %+v, want %+v", period, got, want)
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
