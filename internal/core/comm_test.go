package core

import (
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
	if csr.Edges() != len(m) {
		t.Fatalf("edges = %d, want %d", csr.Edges(), len(m))
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
// counting the same pair) must sum exactly, and Reset must allow reuse.
func TestCommBuilderMergesDuplicates(t *testing.T) {
	var b CommBuilder
	for round := 0; round < 2; round++ {
		b.Reset(8)
		// Three "shards" each reporting overlapping edges.
		for shard := 0; shard < 3; shard++ {
			b.Add(1, 2, 10)
			b.Add(2, 1, float64(shard+1))
			b.Add(7, 0, 5)
		}
		b.Add(1, 3, 1)
		csr := b.Build()
		if got := csr.Rate(1, 2); got != 30 {
			t.Fatalf("round %d: rate(1,2) = %v, want 30", round, got)
		}
		if got := csr.Rate(2, 1); got != 6 {
			t.Fatalf("round %d: rate(2,1) = %v, want 6", round, got)
		}
		if got := csr.Edges(); got != 4 {
			t.Fatalf("round %d: edges = %d, want 4", round, got)
		}
		if got := csr.RowMax(1); got != 30 {
			t.Fatalf("round %d: rowMax(1) = %v, want 30", round, got)
		}
	}
}

// TestCommCSRNilAndEmpty: a nil CSR and an empty builder result behave as a
// zero matrix (metrics call these paths on snapshots without traffic).
func TestCommCSRNilAndEmpty(t *testing.T) {
	var nilCSR *CommCSR
	if nilCSR.Rows() != 0 || nilCSR.Edges() != 0 || nilCSR.Rate(0, 0) != 0 {
		t.Fatal("nil CSR must read as empty")
	}
	nilCSR.ForEach(func(int, int, float64) { t.Fatal("nil CSR has no edges") })

	var b CommBuilder
	b.Reset(4)
	empty := b.Build()
	if empty.Rows() != 4 || empty.Edges() != 0 || empty.Rate(2, 1) != 0 || empty.RowMax(0) != 0 {
		t.Fatal("empty CSR must read as zero")
	}
}
