package controller

// The reactive layer's fixed policy: how far the hottest alive node must sit
// above the alive mean, how far some node's rate must stray from its own
// history (relative to the mean) to call the skew transient, the EWMA factor
// of that history, the boundaries skipped after a firing, and the key groups
// one firing may move.
const (
	triggerRatio     = 1.25
	triggerDeviation = 0.15
	triggerAlpha     = 0.4
	triggerCooldown  = 2
	hotMoveBudget    = 2
)

// trigger is the reactive (sub-period) firing policy: it watches per-node
// load rates at every sub-interval boundary and decides when transient skew
// justifies an immediate hot move instead of waiting for the period
// barrier. It fires when both
//
//   - the imbalance ratio (hottest alive node over the alive mean) reaches
//     triggerRatio, and
//   - some alive node's rate deviates from its own EWMA history by at least
//     triggerDeviation relative to the mean — i.e. the skew is a recent
//     change, not a steady state the periodic planner already owns,
//
// and then stays quiet for triggerCooldown boundaries so one burst cannot
// thrash the allocation. On the very first observation there is no history,
// so the deviation condition is waived: skew present from the first boundary
// still fires.
//
// A trigger is not safe for concurrent use; the controller drives it from the
// engine's sub-period observer only.
type trigger struct {
	ewma   []float64
	seeded bool
	cool   int
}

// Observe folds one boundary's per-node load rates (already normalized to a
// per-interval scale by the caller) into the EWMA history and reports
// whether the reactive planner should fire now. kill marks nodes excluded
// from the mean and the hot side of the ratio (draining or removed nodes
// are not the reactive path's problem). len(loads) may grow between calls
// as nodes are added.
func (t *trigger) Observe(loads []float64, kill []bool) bool {
	first := !t.seeded
	t.seeded = true
	// Grow history for newly added nodes (seeded with the current rate).
	for len(t.ewma) < len(loads) {
		t.ewma = append(t.ewma, loads[len(t.ewma)])
	}

	mean, alive := 0.0, 0
	maxLoad, maxDev := 0.0, 0.0
	for i, l := range loads {
		if kill != nil && i < len(kill) && kill[i] {
			continue
		}
		mean += l
		alive++
		if l > maxLoad {
			maxLoad = l
		}
		if d := l - t.ewma[i]; d > maxDev {
			maxDev = d
		} else if -d > maxDev {
			maxDev = -d
		}
	}
	for i, l := range loads {
		t.ewma[i] = triggerAlpha*l + (1-triggerAlpha)*t.ewma[i]
	}
	if alive == 0 || mean == 0 {
		return false
	}
	mean /= float64(alive)

	if t.cool > 0 {
		t.cool--
		return false
	}
	if maxLoad/mean < triggerRatio {
		return false
	}
	if !first && maxDev/mean < triggerDeviation {
		return false
	}
	t.cool = triggerCooldown
	return true
}

// Rearm clears the cooldown so the next boundary may fire again; the
// controller calls it when a firing produced no applicable moves (the skew
// is still there, the planner just could not act on this snapshot).
func (t *trigger) Rearm() { t.cool = 0 }
