package distrib

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// Chaos property: arbitrary per-link delay, jitter and bounded stalls must
// not change a single statistic. The engine's protocols only assume
// per-link FIFO — which the chaos wrapper preserves — so the full adaptive
// script (delta and full moves, hot moves, scale-out, checkpoints) under a
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
		opt  func(peer int) transport.ChaosOptions
	}{
		{"delay-jitter", func(peer int) transport.ChaosOptions {
			return transport.ChaosOptions{
				Seed:   int64(100 + peer),
				Delay:  200 * time.Microsecond,
				Jitter: 800 * time.Microsecond,
			}
		}},
		{"stalls", func(peer int) transport.ChaosOptions {
			return transport.ChaosOptions{
				Seed:       int64(200 + peer),
				Jitter:     100 * time.Microsecond,
				StallEvery: 50,
				StallFor:   3 * time.Millisecond,
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chaotic, chaoticCkpts := runMem(t, spec, func(peer int, ep transport.Endpoint) transport.Endpoint {
				return transport.WithChaos(ep, tc.opt(peer))
			})
			comparePeriods(t, tc.name, chaotic, clean)
			if !reflect.DeepEqual(chaoticCkpts, cleanCkpts) {
				t.Errorf("checkpoints diverge under %s: got %+v want %+v", tc.name, chaoticCkpts, cleanCkpts)
			}
		})
	}
}

// lateChaos is an endpoint that turns chaotic on demand: once arm has been
// called, every further frame goes through a Chaos wrapper with the given
// options (frames sent before are already in the transport, so per-link FIFO
// holds across the switch).
type lateChaos struct {
	transport.Endpoint
	chaos atomic.Pointer[transport.Chaos]
}

func (l *lateChaos) arm(opt transport.ChaosOptions) {
	l.chaos.Store(transport.WithChaos(l.Endpoint, opt))
}

func (l *lateChaos) Send(peer int, data []byte) error {
	if c := l.chaos.Load(); c != nil {
		return c.Send(peer, data)
	}
	return l.Endpoint.Send(peer, data)
}

// TestWorkerDeathAtSegmentBoundary: a worker that dies while a segment
// boundary is open — its shards owe the controller the completions of the
// non-final barrier wave, the acks of the resume arm or the moved state —
// must fail the period with an error: neither the generator parked at the
// boundary nor the control goroutine counting the wave may wait for it
// forever, and the boundaries the generator still has ahead of it in the
// failed period (three per period here, each with a move to hand over) must
// not hold it either. Worker 2's endpoint gets a one-shot drop (chaos
// DropAfter) armed when the period's first observer runs, and one run per
// k = 1, 2, ... kills it k frames later, which walks the death through the
// rest of the boundary — the resume arm's acks, the moved state — and into
// the next segment's wave and sub-snapshot.
func TestWorkerDeathAtSegmentBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("one cluster per kill point; skipping in -short")
	}
	spec := equivSpec()
	spec.Engine.SubPeriods = 4
	for k := 1; k <= 10; k++ {
		var victim *lateChaos
		e, stop, err := StartMem(spec, 2, func(peer int, ep transport.Endpoint) transport.Endpoint {
			if peer != 2 {
				return ep
			}
			victim = &lateChaos{Endpoint: ep}
			return victim
		})
		if err != nil {
			t.Fatal(err)
		}
		// Every boundary of period 3 moves one more group of sumdelay (gids
		// 12..23) one node forward; the first is group 13, from node 1
		// (worker 2) to node 2 (worker 1).
		e.SetSubObserver(func(snap *core.Snapshot, period, sub int) []core.Move {
			if period != 3 {
				return nil
			}
			if sub == 1 {
				victim.arm(transport.ChaosOptions{DropAfter: k})
			}
			g := 12 + sub
			from := snap.Groups[g].Node
			return []core.Move{{Group: g, From: from, To: (from + 1) % 3}}
		})
		done := make(chan error, 1)
		go func() {
			for p := 1; p <= 3; p++ {
				if _, err := e.RunPeriod(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		select {
		case err := <-done:
			// One boundary's completions and acks plus the period's stats
			// reply are more than ten frames: the period cannot have ended.
			if err == nil {
				t.Errorf("kill %d frames into the boundary: period 3 succeeded on a dead worker", k)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("kill %d frames into the boundary: RunPeriod wedged", k)
		}
		stop()
	}
}
