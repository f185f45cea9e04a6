package core

// LoadDistance returns the paper's load-imbalance metric under the current
// allocation, in percentage points: the solver's valuation of it
// (Evaluate's LoadDistance), the largest |util − mean| over the nodes not
// marked for removal, where the mean counts the load of every node.
func (s *Snapshot) LoadDistance() float64 {
	return Evaluate(s, currentAssignment(s)).LoadDistance
}

// AverageLoad returns the mean utilization over alive nodes (for the load
// index metric).
func (s *Snapshot) AverageLoad() float64 {
	n, sum := 0, 0.0
	for i, u := range Evaluate(s, currentAssignment(s)).Util {
		if !s.Killed(i) {
			sum += u
			n++
		}
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
