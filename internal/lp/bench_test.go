package lp

import (
	"math/rand"
	"testing"
)

// BenchmarkSimplexLP solves a dense 40x40 LP.
func BenchmarkSimplexLP(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewModel()
	const n = 40
	for j := 0; j < n; j++ {
		m.AddVar("", 0, 10, rng.Float64()*2-1)
	}
	for i := 0; i < n; i++ {
		vars := make([]int, n)
		coefs := make([]float64, n)
		for j := 0; j < n; j++ {
			vars[j], coefs[j] = j, rng.Float64()
		}
		m.AddCons("", vars, coefs, LE, 5+rng.Float64()*10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol := SolveLP(m); sol.Status != Optimal {
			b.Fatal(sol.Status)
		}
	}
}

// BenchmarkMILPKnapsack solves a 24-item binary knapsack exactly.
func BenchmarkMILPKnapsack(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := NewModel()
	var vars []int
	var wts []float64
	for j := 0; j < 24; j++ {
		vars = append(vars, m.AddBinVar("", -(1+rng.Float64()*9)))
		wts = append(wts, 1+rng.Float64()*9)
	}
	m.AddCons("w", vars, wts, LE, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol := SolveMILP(m, MILPOptions{}); sol.Status != Optimal {
			b.Fatal(sol.Status)
		}
	}
}
