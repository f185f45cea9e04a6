package core

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// manualScaler replays a scripted sequence of decisions: its i-th call
// returns Script[i-1], and past the script's end it decides nothing. The
// controller plans exactly once per period in either mode, so Script[i] is
// the decision on period i+1's snapshot.
type manualScaler struct {
	Script []ScaleDecision
	calls  int
}

// Decide implements Scaler.
func (m *manualScaler) Decide(s *Snapshot, plan *Plan) ScaleDecision {
	m.calls++
	if m.calls > len(m.Script) {
		return ScaleDecision{}
	}
	return m.Script[m.calls-1]
}

// TestManualScalerIndexedByPeriod: the controller plans once per period in
// either mode, so the script is played one entry per call — the call for
// period p returns Script[p-1] — and decides nothing past its end.
func TestManualScalerIndexedByPeriod(t *testing.T) {
	script := make([]ScaleDecision, 8)
	script[2] = ScaleDecision{AddNodes: 2}
	script[5] = ScaleDecision{MarkForRemoval: []int{3, 4}}
	m := &manualScaler{Script: script}
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

// TestALBICConvergedPlanReturnsEarly: TimeLimit is a ceiling, not a time to
// spend. On a snapshot whose solves converge — 64 groups on 8 nodes, the
// benchmark's size — an hour's limit yields the plan a minute's does. A solve
// that did not stop at convergence would outlive go test's timeout, so
// returning at all is the early-return check; the test reads no clock.
func TestALBICConvergedPlanReturnsEarly(t *testing.T) {
	plan := func(limit time.Duration) *Plan {
		s := synthSnapshot(64, 8, 3)
		s.MaxMigrations = 8
		p, err := (&ALBIC{TimeLimit: limit, Seed: 1}).Plan(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	samePlan(t, "an hour vs a minute", plan(time.Minute), plan(time.Hour))
}
