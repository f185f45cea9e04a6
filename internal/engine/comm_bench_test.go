package engine

import (
	"fmt"
	"testing"
)

// benchCommAccumulate hammers the per-tuple communication-matrix
// accumulation path in isolation: one add per emitted tuple, over a
// realistic edge distribution (each upstream group talks to a handful of
// downstream groups).
func benchCommAccumulate(b *testing.B, numGroups int, dense bool) {
	s := commStats(numGroups, dense)
	half := numGroups / 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := i % half
		to := half + (i*7+from)%half
		s.addComm(from, to)
	}
	b.StopTimer()
	// The merge cost is part of the trade: dense pays a full-matrix sweep
	// once per period instead of a table iteration.
	total := 0.0
	s.forEachComm(func(_, _ int, v float64) { total += v })
	if total != float64(b.N) {
		b.Fatalf("accumulated %v edges, want %d", total, b.N)
	}
}

// BenchmarkCommAccumulateDense measures the flat gid×gid matrix small
// topologies use (one slice index + add per tuple).
func BenchmarkCommAccumulateDense(b *testing.B) { benchCommAccumulate(b, 128, true) }

// BenchmarkCommAccumulateSparse measures the open-addressed counting table
// large topologies use (hash + linear probe + add per tuple, no per-tuple
// allocation), at the paper-scale group count and at planner-scaling sizes
// where the dense matrix would need 8 MB–2 GB per shard.
func BenchmarkCommAccumulateSparse(b *testing.B) {
	for _, groups := range []int{128, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			benchCommAccumulate(b, groups, false)
		})
	}
}
