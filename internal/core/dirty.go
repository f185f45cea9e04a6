package core

import (
	"math"
	"sort"
)

// Default knobs for incremental dirty-region planning.
const (
	// DefaultDirtyLoadDelta is the relative per-group load change that marks
	// a group dirty between consecutive planner invocations.
	DefaultDirtyLoadDelta = 0.10
	// DefaultDirtyTopK caps the dirty region: beyond it, only the K groups
	// with the largest load deltas (plus every group that must move) stay
	// candidates — the anytime degradation that keeps plan time bounded at
	// 16k groups.
	DefaultDirtyTopK = 512
)

// dirtyTracker remembers the per-group state a planner last observed and
// derives the dirty region for its next invocation: the groups whose load or
// placement changed materially, the groups that must move (their node is
// kill-marked), and the CSR out-neighborhoods of all of those — the groups
// whose collocation relationships the changes could have disturbed.
//
// The tracker is planner-local state, like ALBIC's round counter: a balancer
// instance serves one control loop and is invoked sequentially.
type dirtyTracker struct {
	lastLoads []float64
	lastNodes []int
	lastNum   int // node count at the last observation

	// scratch reused across invocations
	dirty []bool
	prio  []float64
}

// observe records the snapshot as the baseline for the next region call.
func (t *dirtyTracker) observe(s *Snapshot) {
	n := len(s.Groups)
	if cap(t.lastLoads) < n {
		t.lastLoads = make([]float64, n)
		t.lastNodes = make([]int, n)
	}
	t.lastLoads = t.lastLoads[:n]
	t.lastNodes = t.lastNodes[:n]
	for k, g := range s.Groups {
		t.lastLoads[k] = g.Load
		t.lastNodes[k] = g.Node
	}
	t.lastNum = s.NumNodes
}

// region returns the dirty-group mask for the snapshot, or nil when the
// planner must (or may as well) run a full solve: the first invocation, a
// topology or cluster-size change, or a region that covers every group.
// The nil return is load-bearing for correctness testing: callers treat it
// as "take the exact full code path", so a region covering all groups yields
// a plan identical to non-incremental planning.
func (t *dirtyTracker) region(s *Snapshot, loadDelta float64, topK int) []bool {
	n := len(s.Groups)
	if len(t.lastLoads) != n || t.lastNum != s.NumNodes {
		return nil // first call or shape change: full solve
	}
	if loadDelta <= 0 {
		loadDelta = DefaultDirtyLoadDelta
	}
	if topK == 0 {
		topK = DefaultDirtyTopK
	}

	if cap(t.dirty) < n {
		t.dirty = make([]bool, n)
		t.prio = make([]float64, n)
	}
	dirty := t.dirty[:n]
	prio := t.prio[:n]
	for k := range dirty {
		dirty[k] = false
		prio[k] = 0
	}

	// Seeds: forced movers (kill-marked host, host changed under us) and
	// groups whose load moved more than the relative threshold.
	var seeds []int
	count := 0
	mark := func(k int, p float64) {
		if !dirty[k] {
			dirty[k] = true
			count++
		}
		if p > prio[k] {
			prio[k] = p
		}
	}
	for k, g := range s.Groups {
		d := math.Abs(g.Load - t.lastLoads[k])
		switch {
		case s.Killed(g.Node) || g.Node != t.lastNodes[k]:
			mark(k, math.Inf(1))
			seeds = append(seeds, k)
		case d > loadDelta*t.lastLoads[k]:
			mark(k, d)
			seeds = append(seeds, k)
		}
	}
	if len(seeds) == 0 {
		// Nothing changed: an empty region would freeze everything and the
		// solver would have nothing to do, which is exactly right.
		return dirty
	}

	// Expand one hop along the communication graph: a seed's correspondents
	// are the groups whose collocation the seed's change can disturb.
	for _, k := range seeds {
		cols, _ := s.Comm.Row(k)
		for _, gj := range cols {
			mark(int(gj), prio[k]*0.5)
		}
	}

	if count == n {
		return nil // region covers everything: identical to a full solve
	}
	if topK > 0 && count > topK {
		// Anytime degradation: keep the forced movers unconditionally and
		// the top-K remaining rows by load delta.
		idx := make([]int, 0, count)
		for k := range dirty {
			if dirty[k] {
				idx = append(idx, k)
			}
		}
		sort.Slice(idx, func(a, b int) bool {
			pa, pb := prio[idx[a]], prio[idx[b]]
			if pa != pb {
				return pa > pb
			}
			return idx[a] < idx[b]
		})
		for _, k := range idx[topK:] {
			if !math.IsInf(prio[k], 1) {
				dirty[k] = false
			}
		}
	}
	return dirty
}
