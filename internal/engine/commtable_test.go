package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
)

// commEdges reads a communication matrix back as an edge map.
func commEdges(c *core.CommCSR) map[[2]int]float64 {
	m := map[[2]int]float64{}
	c.ForEach(func(from, to int, rate float64) { m[[2]int{from, to}] = rate })
	return m
}

// TestCommTableMatchesMapAtScale: the open-addressed accumulator must agree
// exactly with the straightforward map implementation it replaced — every
// pair visited once, with its exact count, and nothing after a reset — on a
// small topology where every pair occurs (17 groups) and on one (1.2k groups)
// that forces several growths from the minimum bucket count.
func TestCommTableMatchesMapAtScale(t *testing.T) {
	for _, numGroups := range []int{17, 1200} {
		rng := rand.New(rand.NewSource(42))

		var tab commTable
		tab.init(0) // start at the minimum so growth paths are exercised
		ref := map[[2]int]float64{}

		for i := 0; i < 200_000; i++ {
			// Zipf-ish skew: a few hot pairs plus a long uniform tail,
			// mirroring keyBy fan-out between two wide operators.
			var from, to int
			if rng.Intn(4) == 0 {
				from, to = rng.Intn(8), rng.Intn(8)
			} else {
				from, to = rng.Intn(numGroups), rng.Intn(numGroups)
			}
			tab.add(from, to)
			ref[[2]int{from, to}]++
		}

		got := map[[2]int]float64{}
		tab.forEach(func(from, to int, rate float64) {
			if _, dup := got[[2]int{from, to}]; dup {
				t.Fatalf("%d groups: pair (%d,%d) visited twice", numGroups, from, to)
			}
			got[[2]int{from, to}] = rate
		})
		if len(got) != len(ref) {
			t.Fatalf("%d groups: table has %d pairs, map has %d", numGroups, len(got), len(ref))
		}
		for p, v := range ref {
			if got[p] != v {
				t.Fatalf("%d groups: count[%v] = %v, want %v", numGroups, p, got[p], v)
			}
		}

		// reset keeps capacity but must drop every entry.
		tab.reset()
		tab.forEach(func(from, to int, rate float64) {
			t.Fatalf("%d groups: entry (%d,%d)=%v survived reset", numGroups, from, to, rate)
		})
		if tab.n != 0 {
			t.Fatalf("%d groups: n = %d after reset", numGroups, tab.n)
		}
		tab.add(3, 4)
		found := 0
		tab.forEach(func(from, to int, rate float64) {
			found++
			if from != 3 || to != 4 || rate != 1 {
				t.Fatalf("%d groups: post-reset entry (%d,%d)=%v", numGroups, from, to, rate)
			}
		})
		if found != 1 {
			t.Fatalf("%d groups: post-reset table has %d entries, want 1", numGroups, found)
		}
	}
}

// TestShardedCommMergeMatchesMapAtScale: the full period path — several
// shards accumulating into their counting tables, merged through core.CommBuilder
// into the CSR — must agree exactly with one reference map fed the same
// stream. Comm rates are unit counts, so summation order cannot change the
// result and the comparison is exact equality, not approximate.
func TestShardedCommMergeMatchesMapAtScale(t *testing.T) {
	const numGroups = 1500
	const shards = 4
	rng := rand.New(rand.NewSource(7))

	stats := make([]*nodeStats, shards)
	for i := range stats {
		stats[i] = newNodeStats(numGroups)
	}
	ref := map[[2]int]float64{}

	for i := 0; i < 120_000; i++ {
		from, to := rng.Intn(numGroups), rng.Intn(numGroups)
		stats[rng.Intn(shards)].comm.add(from, to)
		ref[[2]int{from, to}]++
	}

	var b core.CommBuilder
	b.Reset(numGroups)
	for _, st := range stats {
		st.comm.forEach(b.Add)
	}
	csr := b.Build()

	got := commEdges(csr)
	if len(got) != len(ref) {
		t.Fatalf("CSR has %d edges, map has %d", len(got), len(ref))
	}
	for p, v := range ref {
		if got[p] != v {
			t.Fatalf("rate[%v] = %v, want %v", p, got[p], v)
		}
	}
}

// TestCommMatchesReference runs one topology at two group counts and checks
// that the merged communication matrix is exactly what the job's key hashing
// implies: each word flows once per period from its count group to its sink
// group.
func TestCommMatchesReference(t *testing.T) {
	words := make([]string, 600)
	for i := range words {
		words[i] = fmt.Sprintf("w%03d", i)
	}
	for _, kgs := range []int{100, 200} { // 100 + 97 and 200 + 197 groups
		t.Run(fmt.Sprintf("%d-groups", 2*kgs-3), func(t *testing.T) {
			tp := wordCountTopology(words, len(words), kgs, newCollector())
			e, err := New(tp, Config{Nodes: 3, ShardsPerNode: 2}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			ps, err := e.RunPeriod()
			if err != nil {
				t.Fatal(err)
			}
			want := map[[2]int]float64{}
			for _, w := range words {
				h := codec.Hash(w)
				want[[2]int{tp.GID(0, int(h%uint64(kgs))), tp.GID(1, int(h%uint64(kgs-3)))}]++
			}
			got := commEdges(ps.Comm)
			if len(got) != len(want) {
				t.Fatalf("comm has %d edges, want %d", len(got), len(want))
			}
			for p, v := range want {
				if got[p] != v {
					t.Fatalf("comm[%v] = %v, want %v", p, got[p], v)
				}
			}
			if ps.BytesCrossNodeIn != ps.BytesCrossNode+ps.SrcBytesCrossNode {
				t.Fatalf("wire identity broken: in=%d, out=%d+%d",
					ps.BytesCrossNodeIn, ps.BytesCrossNode, ps.SrcBytesCrossNode)
			}
		})
	}
}
