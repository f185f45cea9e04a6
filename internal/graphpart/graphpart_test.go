package graphpart

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// partWeights returns the vertex-weight sum of each of the k parts.
func partWeights(g *Graph, part []int, k int) []float64 {
	w := make([]float64, k)
	for v, p := range part {
		w[p] += g.vw[v]
	}
	return w
}

func ringGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, 1)
	}
	return g
}

func TestBisectRing(t *testing.T) {
	// A ring of 32 has an optimal bisection cut of 2.
	g := ringGraph(32)
	part, err := Partition(g, 2, 1.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	cut := EdgeCut(g, part)
	if cut > 4 {
		t.Fatalf("ring cut = %v, want <= 4 (optimal 2)", cut)
	}
	w := partWeights(g, part, 2)
	if math.Abs(w[0]-w[1]) > 4 {
		t.Fatalf("imbalanced: %v", w)
	}
}

func TestPartitionTwoCliques(t *testing.T) {
	// Two 10-cliques joined by one edge: optimal 2-way cut is 1.
	g := NewGraph(20)
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			g.AddEdge(i, j, 1)
			g.AddEdge(10+i, 10+j, 1)
		}
	}
	g.AddEdge(0, 10, 1)
	part, err := Partition(g, 2, 1.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cut := EdgeCut(g, part); cut != 1 {
		t.Fatalf("cut = %v, want 1", cut)
	}
	// All of each clique must land together.
	for i := 1; i < 10; i++ {
		if part[i] != part[0] || part[10+i] != part[10] {
			t.Fatalf("clique split: %v", part)
		}
	}
}

func TestPartitionKWayBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{2, 3, 4, 8} {
		g := NewGraph(200)
		for i := 0; i < 200; i++ {
			g.SetWeight(i, 1+rng.Float64()*3)
		}
		for e := 0; e < 600; e++ {
			g.AddEdge(rng.Intn(200), rng.Intn(200), 1+rng.Float64())
		}
		part, err := Partition(g, k, 1.1, 42)
		if err != nil {
			t.Fatal(err)
		}
		w := partWeights(g, part, k)
		ideal := g.totalWeight() / float64(k)
		for p, pw := range w {
			if pw > ideal*1.45 {
				t.Errorf("k=%d part %d weight %.1f > 1.45x ideal %.1f (weights %v)", k, p, pw, ideal, w)
			}
			if pw == 0 {
				t.Errorf("k=%d part %d empty", k, p)
			}
		}
	}
}

func TestPartitionLargeMultilevel(t *testing.T) {
	// 4 clusters of 100 vertices with dense intra-cluster and sparse
	// inter-cluster edges: 4-way partition should recover the clusters
	// almost exactly (cut close to the 12 bridge edges).
	rng := rand.New(rand.NewSource(5))
	g := NewGraph(400)
	for c := 0; c < 4; c++ {
		base := c * 100
		for e := 0; e < 800; e++ {
			g.AddEdge(base+rng.Intn(100), base+rng.Intn(100), 1)
		}
	}
	for c := 0; c < 4; c++ {
		for d := c + 1; d < 4; d++ {
			g.AddEdge(c*100+rng.Intn(100), d*100+rng.Intn(100), 0.5)
		}
	}
	part, err := Partition(g, 4, 1.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	cut := EdgeCut(g, part)
	if cut > 40 {
		t.Fatalf("cut = %v, want near the ~3.0 bridge weight", cut)
	}
	w := partWeights(g, part, 4)
	for _, pw := range w {
		if pw < 60 || pw > 140 {
			t.Fatalf("cluster weights skewed: %v", w)
		}
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	if _, err := Partition(NewGraph(5), 0, 1.1, 1); err == nil {
		t.Fatal("k=0 must error")
	}
	// k = 1: all in part 0.
	part, err := Partition(ringGraph(5), 1, 1.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatalf("k=1 part = %v", part)
		}
	}
	// Empty graph.
	part, err = Partition(NewGraph(0), 3, 1.1, 1)
	if err != nil || len(part) != 0 {
		t.Fatalf("empty graph: %v %v", part, err)
	}
	// k > n: parts may be empty but assignment must be valid.
	part, err = Partition(ringGraph(3), 5, 1.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range part {
		if p < 0 || p >= 5 {
			t.Fatalf("part id out of range: %v", part)
		}
	}
	// No edges at all.
	g := NewGraph(64)
	part, err = Partition(g, 4, 1.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := partWeights(g, part, 4)
	for _, pw := range w {
		if pw < 8 || pw > 24 {
			t.Fatalf("edgeless balance: %v", w)
		}
	}
}

func TestSelfLoopsIgnored(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(1, 1, 10)
	if g.adj[1][1] != 0 {
		t.Fatal("self loop stored")
	}
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 0, 3)
	if g.adj[0][1] != 5 || g.adj[1][0] != 5 {
		t.Fatalf("parallel edges must accumulate: %v", g.adj[0][1])
	}
}

// Property: every vertex is assigned to a valid part and the cut is
// consistent with a brute-force recount.
func TestPartitionProperties(t *testing.T) {
	f := func(seed int64, edges []uint16) bool {
		n := 30
		g := NewGraph(n)
		for i := 0; i+1 < len(edges); i += 2 {
			g.AddEdge(int(edges[i])%n, int(edges[i+1])%n, 1)
		}
		k := 2 + int(uint64(seed)%3)
		part, err := Partition(g, k, 1.15, seed)
		if err != nil || len(part) != n {
			return false
		}
		for _, p := range part {
			if p < 0 || p >= k {
				return false
			}
		}
		// Recount cut by hand.
		cut := 0.0
		for v := 0; v < n; v++ {
			for u := v + 1; u < n; u++ {
				if w := g.adj[v][u]; w > 0 && part[v] != part[u] {
					cut += w
				}
			}
		}
		return math.Abs(cut-EdgeCut(g, part)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	g := ringGraph(100)
	a, _ := Partition(g, 4, 1.1, 123)
	b, _ := Partition(g, 4, 1.1, 123)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical partitions")
		}
	}
}
