package core

import "slices"

// CommCSR is an immutable compressed-sparse-row view of the inter-key-group
// communication rates observed over one statistics period, the only form in
// which a Snapshot carries them. Row gi holds the out-edges of group gi,
// sorted by destination group, with per-row maxima precomputed so the planner
// can skip rows that cannot clear a scoring threshold without scanning them.
// A CommBuilder makes one, from the engine's barrier merge or from a
// synthetic workload alike.
//
// Values are sums of per-tuple unit increments (or whatever unit the producer
// used), so the order edges arrive in never changes the numbers: the engine's
// per-shard counting tables and the CSR they merge into agree byte for byte as
// long as every edge is counted once.
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
// sum — and converts them into a CommCSR: a counting sort by row, then a sort
// of each row by destination that merges duplicates and takes the row maximum
// in one pass. It is reusable: Reset keeps the staging and the sort scratch,
// so a warm builder's Build allocates only the CSR it returns.
type CommBuilder struct {
	rows   int
	edges  []stagedEdge
	sorted []stagedEdge // scratch: edges placed by row
	count  []int32      // scratch: per-row edge counts, then placement cursors
}

// stagedEdge is one triple handed to Add.
type stagedEdge struct {
	from, to int32
	rate     float64
}

// Reset prepares the builder for a new accumulation over rows key groups.
func (b *CommBuilder) Reset(rows int) {
	b.rows = rows
	b.edges = b.edges[:0]
}

// Add records rate for the edge from→to. Out-of-range groups are dropped; the
// engine never hands one over, since it bounds every edge of a worker's stats
// reply by the topology.
func (b *CommBuilder) Add(from, to int, rate float64) {
	if from < 0 || from >= b.rows || to < 0 || to >= b.rows {
		return
	}
	b.edges = append(b.edges, stagedEdge{int32(from), int32(to), rate})
}

// Len returns the number of staged (possibly duplicate) edges.
func (b *CommBuilder) Len() int { return len(b.edges) }

// Build sorts the staged edges into rows, merges duplicate (from,to) pairs by
// summation, and returns the immutable CSR: five allocations, the CSR and its
// four arrays. The builder may be Reset and reused afterwards.
func (b *CommBuilder) Build() *CommCSR {
	rows := b.rows
	b.count = slices.Grow(b.count[:0], rows+1)[:rows+1]
	count := b.count
	clear(count)
	for _, e := range b.edges {
		count[e.from]++
	}
	rowStart := make([]int32, rows+1)
	var sum int32
	for i := 0; i < rows; i++ {
		rowStart[i] = sum
		sum += count[i]
		count[i] = rowStart[i] // becomes the placement cursor
	}
	rowStart[rows] = sum
	b.sorted = slices.Grow(b.sorted[:0], len(b.edges))[:len(b.edges)]
	sorted := b.sorted
	for _, e := range b.edges {
		sorted[count[e.from]] = e
		count[e.from]++
	}

	// Sort each row by destination, then write it out with duplicates summed.
	// w is the write cursor; rows only shrink, so rowStart[gi] may be
	// overwritten once row gi has been read.
	cols := make([]int32, len(sorted))
	rates := make([]float64, len(sorted))
	rowMax := make([]float64, rows)
	var w int32
	for gi := 0; gi < rows; gi++ {
		row := sorted[rowStart[gi]:rowStart[gi+1]]
		slices.SortFunc(row, func(x, y stagedEdge) int { return int(x.to) - int(y.to) })
		rowStart[gi] = w
		for e := 0; e < len(row); {
			c, r := row[e].to, row[e].rate
			for e++; e < len(row) && row[e].to == c; e++ {
				r += row[e].rate
			}
			cols[w], rates[w] = c, r
			rowMax[gi] = max(rowMax[gi], r)
			w++
		}
	}
	rowStart[rows] = w
	return &CommCSR{rowStart: rowStart, cols: cols[:w], rates: rates[:w], rowMax: rowMax}
}
