package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkCommAccumulate hammers the per-tuple communication-matrix
// accumulation path in isolation: one add per emitted tuple, each upstream
// group talking to four downstream groups, at the paper-scale group count and
// at planner-scaling sizes. The stream visits the edges in random order, as a
// shard's sends do: a probe chain's length is then a branch the CPU cannot
// predict, which a cyclic stream would hide. The walk a period's read makes
// over the table is not timed; it checks that every tuple was counted.
func BenchmarkCommAccumulate(b *testing.B) {
	for _, groups := range []int{128, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			half := groups / 2
			stream := make([][2]int, 1<<16)
			for i := range stream {
				from := rng.Intn(half)
				stream[i] = [2]int{from, half + (from*7+rng.Intn(4))%half}
			}
			var s nodeStats
			s.comm.init(commTableMinBuckets)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := stream[i&(len(stream)-1)]
				s.comm.add(e[0], e[1])
			}
			b.StopTimer()
			total := 0.0
			s.comm.forEach(func(_, _ int, v float64) { total += v })
			if total != float64(b.N) {
				b.Fatalf("accumulated %v edges, want %d", total, b.N)
			}
		})
	}
}
