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

// commStats builds a shard's statistics with the named communication
// accumulator whatever the group count — newNodeStats picks by size — so the
// two can be compared and benchmarked on one stream.
func commStats(numGroups int, dense bool) *nodeStats {
	s := &nodeStats{numGroups: numGroups}
	s.initComm(dense)
	return s
}

// TestDenseAndSparseCommAgree feeds one (from, to) stream to a dense and a
// sparse accumulator, on either side of the cut-over: forEachComm must visit
// the same edges with the same counts, and nothing after a reset.
func TestDenseAndSparseCommAgree(t *testing.T) {
	for _, numGroups := range []int{17, denseCommGroupLimit, denseCommGroupLimit + 40} {
		rng := rand.New(rand.NewSource(int64(numGroups)))
		dense, sparse := commStats(numGroups, true), commStats(numGroups, false)
		for i := 0; i < 50_000; i++ {
			from, to := rng.Intn(numGroups), rng.Intn(numGroups)
			if rng.Intn(3) == 0 { // a few hot pairs over a uniform tail
				from, to = rng.Intn(4), rng.Intn(4)
			}
			dense.addComm(from, to)
			sparse.addComm(from, to)
		}
		edges := func(s *nodeStats) map[[2]int]float64 {
			m := map[[2]int]float64{}
			s.forEachComm(func(from, to int, rate float64) {
				if _, dup := m[[2]int{from, to}]; dup {
					t.Fatalf("%d groups: pair (%d,%d) visited twice", numGroups, from, to)
				}
				m[[2]int{from, to}] = rate
			})
			return m
		}
		dm, sm := edges(dense), edges(sparse)
		if len(dm) == 0 || len(dm) != len(sm) {
			t.Fatalf("%d groups: dense has %d edges, sparse %d", numGroups, len(dm), len(sm))
		}
		for p, v := range dm {
			if sm[p] != v {
				t.Fatalf("%d groups: comm[%v] = %v dense vs %v sparse", numGroups, p, v, sm[p])
			}
		}
		dense.reset()
		sparse.reset()
		if n := len(edges(dense)) + len(edges(sparse)); n != 0 {
			t.Fatalf("%d groups: %d edges survived reset", numGroups, n)
		}
	}
}

// TestCommTableMatchesMapAtScale: the open-addressed sparse accumulator must
// agree exactly with the straightforward map implementation it replaced, at
// a size (1.2k groups, well past denseCommGroupLimit) that forces several
// table growths from the minimum bucket count.
func TestCommTableMatchesMapAtScale(t *testing.T) {
	const numGroups = 1200
	rng := rand.New(rand.NewSource(42))

	var tab commTable
	tab.init(0) // start at the minimum so growth paths are exercised
	ref := map[[2]int]float64{}

	for i := 0; i < 200_000; i++ {
		// Zipf-ish skew: a few hot pairs plus a long uniform tail, mirroring
		// keyBy fan-out between two wide operators.
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
			t.Fatalf("pair (%d,%d) visited twice", from, to)
		}
		got[[2]int{from, to}] = rate
	})
	if len(got) != len(ref) {
		t.Fatalf("table has %d pairs, map has %d", len(got), len(ref))
	}
	for p, v := range ref {
		if got[p] != v {
			t.Fatalf("count[%v] = %v, want %v", p, got[p], v)
		}
	}

	// reset keeps capacity but must drop every entry.
	tab.reset()
	tab.forEach(func(from, to int, rate float64) {
		t.Fatalf("entry (%d,%d)=%v survived reset", from, to, rate)
	})
	if tab.n != 0 {
		t.Fatalf("n = %d after reset", tab.n)
	}
	tab.add(3, 4)
	found := 0
	tab.forEach(func(from, to int, rate float64) {
		found++
		if from != 3 || to != 4 || rate != 1 {
			t.Fatalf("post-reset entry (%d,%d)=%v", from, to, rate)
		}
	})
	if found != 1 {
		t.Fatalf("post-reset table has %d entries, want 1", found)
	}
}

// TestShardedCommMergeMatchesMapAtScale: the full period path — several
// shards accumulating into sparse tables, merged through core.CommBuilder
// into the CSR — must agree exactly with one reference map fed the same
// stream. Comm rates are unit counts, so summation order cannot change the
// result and the comparison is exact equality, not approximate.
func TestShardedCommMergeMatchesMapAtScale(t *testing.T) {
	const numGroups = 1500
	const shards = 4
	rng := rand.New(rand.NewSource(7))

	stats := make([]*nodeStats, shards)
	for i := range stats {
		stats[i] = newNodeStats(numGroups) // 1500 groups: sparse
	}
	ref := map[[2]int]float64{}

	for i := 0; i < 120_000; i++ {
		from, to := rng.Intn(numGroups), rng.Intn(numGroups)
		stats[rng.Intn(shards)].addComm(from, to)
		ref[[2]int{from, to}]++
	}

	var b core.CommBuilder
	b.Reset(numGroups)
	for _, st := range stats {
		st.forEachComm(b.Add)
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

// TestCommSelectionMatchesReference runs one topology on either side of the
// dense/sparse cut-over (denseCommGroupLimit) and checks that the shards took
// the accumulator the group count selects and that the merged communication
// matrix is exactly what the job's key hashing implies: each word flows once
// per period from its count group to its sink group. Together with
// TestDenseAndSparseCommAgree (same stream, both accumulators) this keeps
// both sides of the selection covered.
func TestCommSelectionMatchesReference(t *testing.T) {
	words := make([]string, 600)
	for i := range words {
		words[i] = fmt.Sprintf("w%03d", i)
	}
	for _, tc := range []struct {
		name   string
		kgs    int
		sparse bool
	}{
		{"below-dense", 100, false}, // 100 + 97 groups
		{"above-sparse", 200, true}, // 200 + 197 groups > 362
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp := wordCountTopology(words, len(words), tc.kgs, newCollector())
			e, err := New(tp, Config{Nodes: 3, ShardsPerNode: 2}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if got := tp.NumGroups() > denseCommGroupLimit; got != tc.sparse {
				t.Fatalf("%d groups: above the cut-over = %v, want %v", tp.NumGroups(), got, tc.sparse)
			}
			for _, n := range e.nodes {
				for _, sh := range n.shards {
					if got := sh.stats.commSparse != nil; got != tc.sparse {
						t.Fatalf("shard accumulator sparse = %v, want %v", got, tc.sparse)
					}
				}
			}
			ps, err := e.RunPeriod()
			if err != nil {
				t.Fatal(err)
			}
			want := map[[2]int]float64{}
			for _, w := range words {
				h := codec.Hash(w)
				want[[2]int{tp.GID(0, int(h%uint64(tc.kgs))), tp.GID(1, int(h%uint64(tc.kgs-3)))}]++
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
