package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomCommMap builds a reproducible sparse edge map over `rows` groups with
// integer-count rates (the unit the engine accumulates in).
func randomCommMap(rows, edges int, seed int64) map[[2]int]float64 {
	rng := rand.New(rand.NewSource(seed))
	m := make(map[[2]int]float64, edges)
	for len(m) < edges {
		p := [2]int{rng.Intn(rows), rng.Intn(rows)}
		m[p] = float64(1 + rng.Intn(1000))
	}
	return m
}

// TestCommCSRExactAtScale: the CSR must reproduce an edge map bit-for-bit at
// planner-scaling sizes (1k+ groups) — every edge present with the identical
// rate, none invented, and the O(1) row maxima consistent with the rows.
func TestCommCSRExactAtScale(t *testing.T) {
	const rows, edges = 1500, 12000
	m := randomCommMap(rows, edges, 7)
	var b CommBuilder
	b.Reset(rows)
	for p, v := range m {
		b.Add(p[0], p[1], v)
	}
	csr := b.Build()

	if csr.Rows() != rows {
		t.Fatalf("rows = %d, want %d", csr.Rows(), rows)
	}
	if edgeCount(csr) != len(m) {
		t.Fatalf("edges = %d, want %d", edgeCount(csr), len(m))
	}
	for p, v := range m {
		if got := csr.Rate(p[0], p[1]); got != v {
			t.Fatalf("Rate(%d,%d) = %v, want %v", p[0], p[1], got, v)
		}
	}
	// Row maxima must match a direct recomputation.
	for gi := 0; gi < rows; gi++ {
		cols, rates := csr.Row(gi)
		var max float64
		last := int32(-1)
		for e, c := range cols {
			if c <= last {
				t.Fatalf("row %d not strictly sorted at %d", gi, e)
			}
			last = c
			if rates[e] > max {
				max = rates[e]
			}
		}
		if csr.RowMax(gi) != max {
			t.Fatalf("row %d max %v, want %v", gi, csr.RowMax(gi), max)
		}
	}
}

// TestCommBuilderMergesDuplicates: staged duplicate edges (several shards
// counting the same pair) must sum exactly, and Reset must allow reuse — also
// after a larger build has left longer sort scratch behind. A warm builder's
// Build allocates only the CSR it returns.
func TestCommBuilderMergesDuplicates(t *testing.T) {
	var b CommBuilder
	for round, rows := range []int{8, 64, 8} {
		b.Reset(rows)
		// Three "shards" each reporting overlapping edges.
		for shard := 0; shard < 3; shard++ {
			b.Add(1, 2, 10)
			b.Add(2, 1, float64(shard+1))
			b.Add(7, 0, 5)
		}
		b.Add(1, 3, 1)
		for g := 8; g < rows; g++ { // one edge from every row past the eighth
			b.Add(g, rows-1, 2)
		}
		csr := b.Build()
		if got := csr.Rows(); got != rows {
			t.Fatalf("round %d: rows = %d, want %d", round, got, rows)
		}
		if got := csr.Rate(1, 2); got != 30 {
			t.Fatalf("round %d: rate(1,2) = %v, want 30", round, got)
		}
		if got := csr.Rate(2, 1); got != 6 {
			t.Fatalf("round %d: rate(2,1) = %v, want 6", round, got)
		}
		if got, want := edgeCount(csr), 4+rows-8; got != want {
			t.Fatalf("round %d: edges = %d, want %d", round, got, want)
		}
		if got := csr.RowMax(1); got != 30 {
			t.Fatalf("round %d: rowMax(1) = %v, want 30", round, got)
		}
		if got := csr.RowMax(rows - 1); rows > 8 && got != 2 {
			t.Fatalf("round %d: rowMax(%d) = %v, want 2", round, rows-1, got)
		}
		// The CSR struct, rowStart, cols, rates and rowMax.
		if n := testing.AllocsPerRun(10, func() { b.Build() }); n != 5 {
			t.Fatalf("round %d: warm Build made %v allocations, want 5", round, n)
		}
	}
}

// edgeCount returns the number of distinct (from,to) pairs c stores a rate for.
func edgeCount(c *CommCSR) int {
	n := 0
	c.ForEach(func(int, int, float64) { n++ })
	return n
}

// TestCommCSRNilAndEmpty: a nil CSR and an empty builder result behave as a
// zero matrix (metrics call these paths on snapshots without traffic).
func TestCommCSRNilAndEmpty(t *testing.T) {
	var nilCSR *CommCSR
	if nilCSR.Rows() != 0 || edgeCount(nilCSR) != 0 || nilCSR.Rate(0, 0) != 0 {
		t.Fatal("nil CSR must read as empty")
	}
	nilCSR.ForEach(func(int, int, float64) { t.Fatal("nil CSR has no edges") })

	var b CommBuilder
	b.Reset(4)
	empty := b.Build()
	if empty.Rows() != 4 || edgeCount(empty) != 0 || empty.Rate(2, 1) != 0 || empty.RowMax(0) != 0 {
		t.Fatal("empty CSR must read as zero")
	}
}

// BenchmarkCommBuild measures the merge a cluster read makes: stage one
// period's edges from every shard (pairs repeat across shards and sum), then
// build the CSR, at the paper-scale group count and at planner-scaling sizes.
func BenchmarkCommBuild(b *testing.B) {
	for _, tc := range []struct{ rows, edges int }{{128, 4_000}, {2_000, 60_000}, {16_384, 400_000}} {
		b.Run(fmt.Sprintf("rows=%d/edges=%d", tc.rows, tc.edges), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			staged := make([][2]int, tc.edges)
			for i := range staged {
				staged[i] = [2]int{rng.Intn(tc.rows), rng.Intn(tc.rows)}
			}
			var cb CommBuilder
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cb.Reset(tc.rows)
				for _, e := range staged {
					cb.Add(e[0], e[1], 1)
				}
				if csr := cb.Build(); csr.Rows() != tc.rows {
					b.Fatalf("rows = %d, want %d", csr.Rows(), tc.rows)
				}
			}
		})
	}
}
