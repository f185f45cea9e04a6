package controller

// Trigger is the reactive (sub-period) firing policy: it watches per-node
// load rates at every sub-interval boundary and decides when transient skew
// justifies an immediate hot move instead of waiting for the period
// barrier. It fires when both
//
//   - the imbalance ratio (hottest alive node over the alive mean) exceeds
//     Ratio, and
//   - some alive node's rate deviates from its own EWMA history by more
//     than Deviation relative to the mean — i.e. the skew is a recent
//     change, not a steady state the periodic planner already owns,
//
// and then stays quiet for Cooldown boundaries so one burst cannot thrash
// the allocation. On the very first observation there is no history, so the
// deviation condition is waived: skew present from the first boundary still
// fires.
//
// Trigger is not safe for concurrent use; the controller drives it from the
// engine's generation goroutine only.
type Trigger struct {
	// Ratio is the imbalance threshold max/mean (default 1.25).
	Ratio float64
	// Deviation is the minimum |rate − EWMA| / mean to call the skew
	// transient (default 0.15).
	Deviation float64
	// Alpha is the EWMA factor for the per-node rate history (default 0.4).
	Alpha float64
	// Cooldown is the number of boundaries skipped after a firing
	// (default 2).
	Cooldown int

	ewma   []float64
	seeded bool
	cool   int
}

func (t *Trigger) defaults() (ratio, dev, alpha float64, cooldown int) {
	ratio, dev, alpha, cooldown = t.Ratio, t.Deviation, t.Alpha, t.Cooldown
	if ratio <= 0 {
		ratio = 1.25
	}
	if dev <= 0 {
		dev = 0.15
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 0.4
	}
	if cooldown <= 0 {
		cooldown = 2
	}
	return
}

// Observe folds one boundary's per-node load rates (already normalized to a
// per-interval scale by the caller) into the EWMA history and reports
// whether the reactive planner should fire now. kill marks nodes excluded
// from the mean and the hot side of the ratio (draining or removed nodes
// are not the reactive path's problem). len(loads) may grow between calls
// as nodes are added.
func (t *Trigger) Observe(loads []float64, kill []bool) bool {
	ratio, dev, alpha, cooldown := t.defaults()

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
		t.ewma[i] = alpha*l + (1-alpha)*t.ewma[i]
	}
	if alive == 0 || mean == 0 {
		return false
	}
	mean /= float64(alive)

	if t.cool > 0 {
		t.cool--
		return false
	}
	if maxLoad/mean < ratio {
		return false
	}
	if !first && maxDev/mean < dev {
		return false
	}
	t.cool = cooldown
	return true
}

// Rearm clears the cooldown so the next boundary may fire again; the
// controller calls it when a firing produced no applicable moves (the skew
// is still there, the planner just could not act on this snapshot).
func (t *Trigger) Rearm() { t.cool = 0 }
