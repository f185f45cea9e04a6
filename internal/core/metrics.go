package core

import "math"

// LoadDistance returns the paper's load-imbalance metric: the largest
// absolute difference between any alive node's utilization and the mean, in
// percentage points. Nodes marked for removal are excluded from the max but
// their load still counts toward the mean (divided by |A|), matching the
// MILP's mean definition.
func (s *Snapshot) LoadDistance() float64 {
	utils := s.NodeLoads()
	capA, total := 0.0, 0.0
	for i := 0; i < s.NumNodes; i++ {
		total += utils[i] * s.capacity(i)
		if !s.killed(i) {
			capA += s.capacity(i)
		}
	}
	if capA == 0 {
		return 0
	}
	mean := total / capA
	dist := 0.0
	for i := 0; i < s.NumNodes; i++ {
		if s.killed(i) {
			continue
		}
		if d := math.Abs(utils[i] - mean); d > dist {
			dist = d
		}
	}
	return dist
}

// AverageLoad returns the mean utilization over alive nodes (for the load
// index metric).
func (s *Snapshot) AverageLoad() float64 {
	utils := s.NodeLoads()
	n, sum := 0, 0.0
	for i := 0; i < s.NumNodes; i++ {
		if s.killed(i) {
			continue
		}
		sum += utils[i]
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CollocationFactor returns the share (0-100) of inter-key-group
// communication volume that stays on a single node under the snapshot's
// current allocation. 100 means every observed key-group edge is
// node-local.
func (s *Snapshot) CollocationFactor() float64 {
	return CollocationOf(s, currentAssignment(s))
}

// CollocationOf computes the collocation factor for an arbitrary allocation.
func CollocationOf(s *Snapshot, groupNode []int) float64 {
	total, intra := 0.0, 0.0
	s.Comm.ForEach(func(gi, gj int, rate float64) {
		if rate <= 0 {
			return
		}
		total += rate
		if groupNode[gi] == groupNode[gj] {
			intra += rate
		}
	})
	if total == 0 {
		return 0
	}
	return 100 * intra / total
}

func currentAssignment(s *Snapshot) []int {
	a := make([]int, len(s.Groups))
	for k, g := range s.Groups {
		a[k] = g.Node
	}
	return a
}
