package distrib

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// Chaos property: arbitrary per-link delay, jitter and bounded stalls must
// not change a single statistic. The engine's protocols only assume
// per-link FIFO — which the chaos wrapper preserves — so the full adaptive
// script (whole and delta moves, scale-out, checkpoints) under a
// hostile delay schedule must be indistinguishable from the clean run:
// identical per-period tuple counts per group, identical wire-byte
// accounting, identical checkpoints.
func TestChaosDelayEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos delays are wall-clock; skipping in -short")
	}
	spec := equivSpec()
	clean, cleanCkpts := runMem(t, spec, nil)

	for _, tc := range []struct {
		name string
		opt  func(peer int) chaosOptions
	}{
		{"delay-jitter", func(peer int) chaosOptions {
			return chaosOptions{
				Seed:   int64(100 + peer),
				Delay:  200 * time.Microsecond,
				Jitter: 800 * time.Microsecond,
			}
		}},
		{"stalls", func(peer int) chaosOptions {
			return chaosOptions{
				Seed:       int64(200 + peer),
				Jitter:     100 * time.Microsecond,
				StallEvery: 50,
				StallFor:   3 * time.Millisecond,
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chaotic, chaoticCkpts := runMem(t, spec, func(peer int, ep transport.Endpoint) transport.Endpoint {
				return withChaos(ep, tc.opt(peer))
			})
			comparePeriods(t, tc.name, chaotic, clean)
			if !reflect.DeepEqual(chaoticCkpts, cleanCkpts) {
				t.Errorf("checkpoints diverge under %s: got %+v want %+v", tc.name, chaoticCkpts, cleanCkpts)
			}
		})
	}
}

// lateChaos is an endpoint that turns chaotic on demand: once arm has been
// called, every further frame goes through a chaos wrapper with the given
// options (frames sent before are already in the transport, so per-link FIFO
// holds across the switch).
type lateChaos struct {
	transport.Endpoint
	chaos atomic.Pointer[chaosEndpoint]
}

func (l *lateChaos) arm(opt chaosOptions) {
	l.chaos.Store(withChaos(l.Endpoint, opt))
}

func (l *lateChaos) Send(peer int, data []byte) error {
	if c := l.chaos.Load(); c != nil {
		return c.Send(peer, data)
	}
	return l.Endpoint.Send(peer, data)
}

// TestWorkerDeathDuringStagedMoves: a worker that dies in a period with
// staged moves — its shards owe the controller the acks of the arm, the moved
// state and its events, or the completions of the barrier wave — must fail
// the period with an error: neither the arm phase nor the control goroutine
// counting the wave may wait for it forever, and the generator must end with
// the failed period. Worker 2's endpoint gets a one-shot drop (chaos
// DropAfter) armed right before period 3, and one run per k = 1, 2, ... kills
// it k frames later, which walks the death through the period — the arm's
// acks, the moved state — and into the barrier wave.
func TestWorkerDeathDuringStagedMoves(t *testing.T) {
	if testing.Short() {
		t.Skip("one cluster per kill point; skipping in -short")
	}
	spec := equivSpec()
	for k := 1; k <= 10; k++ {
		var victim *lateChaos
		e, stop, err := startMem(spec, 2, func(peer int, ep transport.Endpoint) transport.Endpoint {
			if peer != 2 {
				return ep
			}
			victim = &lateChaos{Endpoint: ep}
			return victim
		})
		if err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= 2; p++ {
			if _, err := e.RunPeriod(); err != nil {
				t.Fatalf("period %d: %v", p, err)
			}
		}
		// Period 3 moves every group of sumdelay (gids 12..23) that node 1
		// (worker 2) holds — 13, 16, 19 and 22 — to node 2 (worker 1): each
		// is a moved state and an event that worker 2 sends.
		alloc := e.Allocation()
		for g := 13; g <= 22; g += 3 {
			if alloc[g] != 1 {
				t.Fatalf("group %d on node %d, want 1", g, alloc[g])
			}
			alloc[g] = 2
		}
		if err := e.ApplyPlan(alloc); err != nil {
			t.Fatal(err)
		}
		victim.arm(chaosOptions{DropAfter: k})
		done := make(chan error, 1)
		go func() {
			_, err := e.RunPeriod()
			done <- err
		}()
		select {
		case err := <-done:
			// The period's acks, moved states, data, completions and stats
			// reply are more than ten frames: the period cannot have ended.
			if err == nil {
				t.Errorf("kill %d frames into period 3: it succeeded on a dead worker", k)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("kill %d frames into period 3: RunPeriod wedged", k)
		}
		stop()
	}
}
