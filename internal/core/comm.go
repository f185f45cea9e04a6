package core

import "sort"

// CommCSR is an immutable compressed-sparse-row view of the inter-key-group
// communication rates observed over one statistics period, the only form in
// which a Snapshot carries them. Row gi holds the out-edges of group gi,
// sorted by destination group, with per-row maxima precomputed so the planner
// can skip rows that cannot clear a scoring threshold without scanning them.
// A CommBuilder makes one, from the engine's barrier merge or from a
// synthetic workload alike.
//
// Values are sums of per-tuple unit increments (or whatever unit the producer
// used), so representation changes never change the numbers: dense, hashed and
// CSR accounting agree byte for byte as long as every edge is counted once.
//
// A CommCSR is never mutated after Build returns; snapshots share one across
// clones. A nil CommCSR reads as a matrix without edges.
type CommCSR struct {
	rowStart []int32 // len = rows+1; row gi occupies [rowStart[gi], rowStart[gi+1])
	cols     []int32
	rates    []float64
	rowMax   []float64 // max rate in the row (0 for an empty row)
}

// Rows returns the number of key groups the CSR was built for.
func (c *CommCSR) Rows() int {
	if c == nil {
		return 0
	}
	return len(c.rowStart) - 1
}

// Edges returns the number of distinct (from,to) pairs with a stored rate.
func (c *CommCSR) Edges() int {
	if c == nil {
		return 0
	}
	return len(c.cols)
}

// RowMax returns the largest single-edge rate leaving group gi in O(1).
func (c *CommCSR) RowMax(gi int) float64 {
	if c == nil || gi < 0 || gi >= c.Rows() {
		return 0
	}
	return c.rowMax[gi]
}

// Row returns the sorted destination groups and their rates for group gi.
// The returned slices alias the CSR's storage and must not be modified.
func (c *CommCSR) Row(gi int) ([]int32, []float64) {
	if c == nil || gi < 0 || gi >= c.Rows() {
		return nil, nil
	}
	lo, hi := c.rowStart[gi], c.rowStart[gi+1]
	return c.cols[lo:hi], c.rates[lo:hi]
}

// Rate returns the stored rate for the edge gi→gj (0 when absent), by binary
// search within gi's row.
func (c *CommCSR) Rate(gi, gj int) float64 {
	cols, rates := c.Row(gi)
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(cols[mid]) < gj {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && int(cols[lo]) == gj {
		return rates[lo]
	}
	return 0
}

// ForEach calls fn for every stored edge, in row-major (gi, then gj) order.
func (c *CommCSR) ForEach(fn func(gi, gj int, rate float64)) {
	if c == nil {
		return
	}
	for gi := 0; gi < c.Rows(); gi++ {
		lo, hi := c.rowStart[gi], c.rowStart[gi+1]
		for e := lo; e < hi; e++ {
			fn(gi, int(c.cols[e]), c.rates[e])
		}
	}
}

// CommBuilder accumulates (from, to, rate) triples — duplicates allowed, they
// sum — and converts them into a CommCSR with one counting-sort pass. It is
// reusable: Reset keeps the backing arrays, so the per-period barrier merge
// allocates only for the CSR it publishes, not for the staging.
type CommBuilder struct {
	rows  int
	from  []int32
	to    []int32
	rates []float64
	count []int32 // scratch: per-row edge counts, then placement cursors
}

// Reset prepares the builder for a new accumulation over rows key groups.
func (b *CommBuilder) Reset(rows int) {
	b.rows = rows
	b.from = b.from[:0]
	b.to = b.to[:0]
	b.rates = b.rates[:0]
}

// Add records rate for the edge from→to. Out-of-range groups are dropped; the
// engine never hands one over, since it bounds every edge of a worker's stats
// reply by the topology.
func (b *CommBuilder) Add(from, to int, rate float64) {
	if from < 0 || from >= b.rows || to < 0 || to >= b.rows {
		return
	}
	b.from = append(b.from, int32(from))
	b.to = append(b.to, int32(to))
	b.rates = append(b.rates, rate)
}

// Len returns the number of staged (possibly duplicate) edges.
func (b *CommBuilder) Len() int { return len(b.from) }

// Build sorts the staged edges into rows, merges duplicate (from,to) pairs by
// summation, and returns the immutable CSR. The builder may be Reset and
// reused afterwards.
func (b *CommBuilder) Build() *CommCSR {
	rows := b.rows
	if cap(b.count) < rows+1 {
		b.count = make([]int32, rows+1)
	}
	count := b.count[:rows+1]
	for i := range count {
		count[i] = 0
	}
	for _, f := range b.from {
		count[f]++
	}
	rowStart := make([]int32, rows+1)
	var sum int32
	for i := 0; i < rows; i++ {
		rowStart[i] = sum
		sum += count[i]
		count[i] = rowStart[i] // becomes the placement cursor
	}
	rowStart[rows] = sum

	cols := make([]int32, len(b.to))
	rates := make([]float64, len(b.rates))
	for i, f := range b.from {
		p := count[f]
		cols[p] = b.to[i]
		rates[p] = b.rates[i]
		count[f] = p + 1
	}

	// Sort each row by destination and merge duplicates in place. w is the
	// global write cursor; rows only shrink, so it never overtakes the read
	// side.
	var w int32
	for gi := 0; gi < rows; gi++ {
		lo, hi := rowStart[gi], rowStart[gi+1]
		seg := rowSeg{cols[lo:hi], rates[lo:hi]}
		sort.Sort(seg)
		rowStart[gi] = w
		for e := lo; e < hi; {
			c, r := cols[e], rates[e]
			e++
			for e < hi && cols[e] == c {
				r += rates[e]
				e++
			}
			cols[w], rates[w] = c, r
			w++
		}
	}
	rowStart[rows] = w
	cols = cols[:w]
	rates = rates[:w]

	csr := &CommCSR{
		rowStart: rowStart,
		cols:     cols,
		rates:    rates,
		rowMax:   make([]float64, rows),
	}
	for gi := 0; gi < rows; gi++ {
		var max float64
		for e := rowStart[gi]; e < rowStart[gi+1]; e++ {
			if rates[e] > max {
				max = rates[e]
			}
		}
		csr.rowMax[gi] = max
	}
	return csr
}

type rowSeg struct {
	cols  []int32
	rates []float64
}

func (s rowSeg) Len() int           { return len(s.cols) }
func (s rowSeg) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s rowSeg) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.rates[i], s.rates[j] = s.rates[j], s.rates[i]
}
