package core

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// edge is one communication entry of a test snapshot: rate = out(from, to).
type edge struct {
	from, to int
	rate     float64
}

// commOf builds the communication matrix over rows groups from edges.
func commOf(rows int, edges []edge) *CommCSR {
	var b CommBuilder
	b.Reset(rows)
	for _, e := range edges {
		b.Add(e.from, e.to, e.rate)
	}
	return b.Build()
}

// pairSnapshot builds two chained ops with explicit communication entries.
func pairSnapshot(nodes int, rates []edge, groupNode []int, loads []float64) *Snapshot {
	g := len(groupNode)
	half := g / 2
	s := &Snapshot{
		NumNodes: nodes,
		Ops: []OpStat{
			{Name: "up", Downstream: []int{1}},
			{Name: "down"},
		},
		Comm:          commOf(g, rates),
		MaxMigrations: 10,
	}
	for i := 0; i < g; i++ {
		op := 0
		if i >= half {
			op = 1
		}
		s.Ops[op].Groups = append(s.Ops[op].Groups, i)
		load := 5.0
		if loads != nil {
			load = loads[i]
		}
		s.Groups = append(s.Groups, GroupStat{Op: op, Node: groupNode[i], Load: load, StateSize: 10})
	}
	return s
}

func TestALBICScorePairsThreshold(t *testing.T) {
	// 4 upstream, 4 downstream groups. Group 0 sends everything to group 4
	// (far above avg); group 1 spreads evenly (below avg*sF).
	rates := []edge{
		{0, 4, 40},
		{1, 4, 2.5}, {1, 5, 2.5}, {1, 6, 2.5}, {1, 7, 2.5},
	}
	s := pairSnapshot(2, rates, []int{0, 0, 0, 0, 0, 1, 1, 1}, nil)
	a := &ALBIC{}
	col, toBe := a.scorePairs(s, nil)
	// (0,4) is collocated (both node 0) and far above threshold.
	if len(col) != 1 || col[0].gi != 0 || col[0].gj != 4 {
		t.Fatalf("colPairs = %+v, want exactly (0,4)", col)
	}
	// Group 1's even spread must not qualify: 2.5 <= avg(=10/4... the op
	// average includes group 0's traffic; each per-target rate stays under
	// its own mean*1.5).
	for _, p := range toBe {
		if p.gi == 1 {
			t.Fatalf("evenly-spread pair %+v must not score", p)
		}
	}
}

func TestALBICScoreSeparatedPairGoesToToBeCol(t *testing.T) {
	rates := []edge{{0, 4, 40}}
	s := pairSnapshot(2, rates, []int{0, 0, 0, 0, 1, 1, 1, 1}, nil)
	a := &ALBIC{}
	col, toBe := a.scorePairs(s, nil)
	if len(col) != 0 {
		t.Fatalf("colPairs = %+v, want none (0 and 4 are on different nodes)", col)
	}
	if len(toBe) != 1 || toBe[0].gi != 0 || toBe[0].gj != 4 {
		t.Fatalf("toBeCol = %+v, want (0,4)", toBe)
	}
}

func TestALBICBuildPartitionsMergesChains(t *testing.T) {
	// Pairs (0,4) and (4, ... ) share group 4 via another upstream group 1:
	// sets {0,4} and {1,4} must merge into one partition {0,1,4}.
	rates := []edge{{0, 4, 40}, {1, 4, 40}}
	s := pairSnapshot(2, rates, []int{0, 0, 0, 0, 0, 1, 1, 1}, nil)
	a := &ALBIC{}
	col, _ := a.scorePairs(s, nil)
	rng := rand.New(rand.NewSource(1))
	parts := a.buildPartitions(s, col, 25, rng)
	if len(parts) != 1 || len(parts[0]) != 3 {
		t.Fatalf("partitions = %v, want one set of 3", parts)
	}
}

func TestALBICBuildPartitionsSplitsOversized(t *testing.T) {
	// A collocated clique whose total load (60) far exceeds maxPL=25 must
	// be split; no resulting partition may exceed maxPL by much.
	var rates []edge
	groupNode := make([]int, 8)
	loads := make([]float64, 8)
	for i := 0; i < 4; i++ {
		rates = append(rates, edge{i, 4 + i, 50})
		// chain them so the union becomes one set
		if i > 0 {
			rates = append(rates, edge{i - 1, 4 + i, 49})
		}
		groupNode[i], groupNode[4+i] = 0, 0
		loads[i], loads[4+i] = 8, 7
	}
	s := pairSnapshot(2, rates, groupNode, loads)
	a := &ALBIC{}
	col, _ := a.scorePairs(s, nil)
	rng := rand.New(rand.NewSource(2))
	parts := a.buildPartitions(s, col, 25, rng)
	if len(parts) < 2 {
		t.Fatalf("oversized set not split: %v", parts)
	}
	for _, part := range parts {
		load := 0.0
		for _, g := range part {
			load += s.Groups[g].Load
		}
		if load > 25*1.5 {
			t.Fatalf("partition %v load %v far exceeds maxPL", part, load)
		}
	}
}

func TestALBICBuildPartitionsMaxPLZeroDegenerates(t *testing.T) {
	rates := []edge{{0, 4, 40}}
	s := pairSnapshot(2, rates, []int{0, 0, 0, 0, 0, 1, 1, 1}, nil)
	a := &ALBIC{}
	col, _ := a.scorePairs(s, nil)
	rng := rand.New(rand.NewSource(3))
	parts := a.buildPartitions(s, col, 0, rng)
	if len(parts) != 0 {
		t.Fatalf("maxPL=0 must degenerate to singletons (pure MILP), got %v", parts)
	}
}

func TestALBICPinTargetsLessLoadedNode(t *testing.T) {
	// Pair (0,4) split across nodes 0 (heavy) and 1 (light): case 1 pins
	// both to node 1.
	rates := []edge{{0, 4, 40}}
	loads := []float64{30, 30, 30, 30, 5, 5, 5, 5}
	s := pairSnapshot(2, rates, []int{0, 0, 0, 0, 1, 1, 1, 1}, loads)
	a := &ALBIC{Seed: 4}
	plan, err := a.Plan(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if plan.GroupNode[0] != plan.GroupNode[4] {
		t.Fatalf("pair not collocated: %v", plan.GroupNode)
	}
}

func TestALBICNeverPinsToKillNode(t *testing.T) {
	rates := []edge{{0, 4, 40}}
	s := pairSnapshot(3, rates, []int{0, 0, 0, 0, 1, 1, 1, 1}, nil)
	s.Kill = []bool{false, true, false} // group 4's node is marked
	a := &ALBIC{Seed: 5, TimeLimit: 10 * time.Millisecond}
	plan, err := a.Plan(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	for g, n := range plan.GroupNode {
		if n == 1 && s.Groups[g].Node != 1 {
			t.Fatalf("group %d moved onto kill-marked node", g)
		}
	}
}

func TestALBICDefaults(t *testing.T) {
	maxLD, maxPL, stepPL, sf := albicMaxLD, albicMaxPL, albicStepPL, albicSF
	if maxLD != 10 || maxPL != 25 || stepPL != 5 || sf != 1.5 {
		t.Fatalf("defaults = %v %v %v %v, want the paper's 10/25/5/1.5",
			maxLD, maxPL, stepPL, sf)
	}
}

func TestALBICRetryLowersMaxPL(t *testing.T) {
	// Construct a case where keeping the two heavy collocated sets whole
	// cannot satisfy maxLD: two sets of 2x20 load on two nodes, budget
	// enough. ALBIC must split them (retry) to reach a balanced solution.
	rates := []edge{{0, 2, 50}, {1, 3, 50}}
	s := &Snapshot{
		NumNodes: 4,
		Ops: []OpStat{
			{Name: "up", Groups: []int{0, 1}, Downstream: []int{1}},
			{Name: "down", Groups: []int{2, 3}},
		},
		Groups: []GroupStat{
			{Op: 0, Node: 0, Load: 20, StateSize: 10},
			{Op: 0, Node: 1, Load: 20, StateSize: 10},
			{Op: 1, Node: 0, Load: 20, StateSize: 10},
			{Op: 1, Node: 1, Load: 20, StateSize: 10},
		},
		Comm:          commOf(4, rates),
		MaxMigrations: 4,
	}
	// Mean = 80/4 = 20; keeping 40-load partitions whole leaves two nodes
	// at 40 and two at 0 -> load distance 20 > maxLD 10. Splitting allows
	// 20 per node -> load distance 0.
	a := &ALBIC{Seed: 6, TimeLimit: 15 * time.Millisecond}
	plan, err := a.Plan(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Eval.LoadDistance > 10 {
		t.Fatalf("load distance %v > maxLD after retries", plan.Eval.LoadDistance)
	}
}
