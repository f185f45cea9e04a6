package main

import (
	"math"
	"sort"
)

// at reads a sorted slice at a fractional index, interpolating linearly
// between neighbours and clamping to the ends. 0 for an empty slice.
func at(sorted []float64, pos float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if pos <= 0 {
		return sorted[0]
	}
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of v, the order statistics spread
// evenly over [0, 1]; v need not be sorted.
func quantile(v []float64, q float64) float64 {
	return at(sorted(v), q*float64(len(v)-1))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// samplesBeyond is how many of n samples lie above the p-th percentile.
func samplesBeyond(n int, p float64) int {
	return int(float64(n)*(100-p)/100 + 1e-9)
}

// topPercentile is the reporting rule for tail timings: the highest of the
// candidate percentiles that still has at least ten samples beyond it (the
// median when even p90 has fewer).
func topPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 95, 99, 99.9} {
		if samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// spread is the run-to-run spread the acceptance rule uses: the distance
// between the first and third quartile as a share of the median
// (statistics.quantiles(values, n=4), i.e. the exclusive method).
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sorted(v)
	ex := func(q float64) float64 { return at(s, q*float64(len(s)+1)-1) }
	if ex(0.5) == 0 {
		return 0
	}
	return math.Abs((ex(0.75) - ex(0.25)) / ex(0.5))
}
