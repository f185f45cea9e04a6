package core

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// hotSnapshot: one operator, groups spread over nodes, node 0 carrying a
// few heavy groups.
func hotSnapshot(nodes, groups int, hotLoad float64) *Snapshot {
	s := &Snapshot{NumNodes: nodes, Ops: []OpStat{{Name: "op"}}}
	for k := 0; k < groups; k++ {
		load := 10.0
		if k < 3 {
			load = hotLoad
		}
		s.Groups = append(s.Groups, GroupStat{Op: 0, Node: k % nodes, Load: load})
		s.Ops[0].Groups = append(s.Ops[0].Groups, k)
	}
	return s
}

func spreadOf(s *Snapshot, groupNode []int) float64 {
	loads := make([]float64, s.NumNodes)
	for k, n := range groupNode {
		loads[n] += s.Groups[k].Load
	}
	min, max := loads[0], loads[0]
	for _, l := range loads {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	return max - min
}

// TestGreedyHotMoverRelievesHotNode: the hot mover must shrink the
// node-load spread, move at most the snapshot's MaxMigrations groups (3
// when it is unset), and leave everything else in place.
func TestGreedyHotMoverRelievesHotNode(t *testing.T) {
	for _, c := range []struct {
		nodes, groups    int
		hotLoad          float64
		maxMigs, maxMove int
	}{
		// Groups 0,1,2 are heavy; 0 sits on node 0 together with 4,8,12.
		{4, 16, 60, 2, 2},
		{4, 16, 60, 1, 1},
		// Uncapped, this snapshot takes four moves.
		{2, 16, 100, 0, 3},
	} {
		s := hotSnapshot(c.nodes, c.groups, c.hotLoad)
		cur := make([]int, len(s.Groups))
		for k, g := range s.Groups {
			cur[k] = g.Node
		}
		before := spreadOf(s, cur)

		s.MaxMigrations = c.maxMigs
		plan, err := (&GreedyHotMover{}).Plan(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Moves) == 0 {
			t.Fatalf("%+v: hot mover proposed no moves on a skewed snapshot", c)
		}
		if len(plan.Moves) > c.maxMove {
			t.Fatalf("%+v: hot mover exceeded its cap: %d moves", c, len(plan.Moves))
		}
		after := spreadOf(s, plan.GroupNode)
		if after >= before {
			t.Fatalf("%+v: spread did not improve: %.1f -> %.1f", c, before, after)
		}
		moved := map[int]bool{}
		for _, mv := range plan.Moves {
			moved[mv.Group] = true
			if mv.From != s.Groups[mv.Group].Node {
				t.Fatalf("%+v: move %v has wrong From", c, mv)
			}
		}
		for k, n := range plan.GroupNode {
			if !moved[k] && n != s.Groups[k].Node {
				t.Fatalf("%+v: group %d relocated without appearing in Moves", c, k)
			}
		}
	}
}

// TestGreedyHotMoverNeverTargetsKilledNodes: draining nodes may donate but
// never receive.
func TestGreedyHotMoverNeverTargetsKilledNodes(t *testing.T) {
	s := hotSnapshot(4, 16, 60)
	s.Kill = []bool{false, true, true, false}
	hm := &GreedyHotMover{}
	plan, err := hm.Plan(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	for _, mv := range plan.Moves {
		if s.Kill[mv.To] {
			t.Fatalf("move %v targets a kill-marked node", mv)
		}
	}
}

// TestGreedyHotMoverRespectsOperatorHosts: under collocation the globally
// least-utilized node often hosts none of the hot operator's groups; a
// move there would be silently rejected by the engine (host sets never
// change mid-period). The planner must pick the least-utilized node among
// the operator's CURRENT hosts instead, so its plans remain executable.
func TestGreedyHotMoverRespectsOperatorHosts(t *testing.T) {
	// Two operators, fully collocated apart: op 0 lives on nodes 0/1,
	// op 1 on nodes 2/3. Node 0 is hot with op-0 load; nodes 2/3 are the
	// globally least utilized but host no op-0 group.
	s := &Snapshot{NumNodes: 4, Ops: []OpStat{{Name: "hot"}, {Name: "cold"}}}
	add := func(op, node int, load float64) {
		k := len(s.Groups)
		s.Groups = append(s.Groups, GroupStat{Op: op, Node: node, Load: load})
		s.Ops[op].Groups = append(s.Ops[op].Groups, k)
	}
	for i := 0; i < 4; i++ {
		add(0, 0, 30) // hot node
	}
	for i := 0; i < 4; i++ {
		add(0, 1, 10)
	}
	for i := 0; i < 2; i++ {
		add(1, 2, 5) // near-idle, but never a legal op-0 destination
		add(1, 3, 5)
	}
	plan, err := (&GreedyHotMover{}).Plan(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) == 0 {
		t.Fatal("no moves planned off the hot node")
	}
	for _, mv := range plan.Moves {
		if s.Groups[mv.Group].Op != 0 {
			t.Fatalf("move %v touches the cold operator", mv)
		}
		if mv.To != 1 {
			t.Fatalf("move %v targets node %d, which hosts no op-0 group (only node 1 is legal)", mv, mv.To)
		}
	}
}

// TestGreedyHotMoverBalancedNoop: an already balanced snapshot yields no
// moves.
func TestGreedyHotMoverBalancedNoop(t *testing.T) {
	s := hotSnapshot(4, 16, 10) // hotLoad == base load: perfectly uniform
	plan, err := (&GreedyHotMover{}).Plan(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 0 {
		t.Fatalf("hot mover proposed %d moves on a balanced snapshot", len(plan.Moves))
	}
}

// TestMILPBalancerHonorsContext: the solve stops at ctx, not only at its
// TimeLimit. A context cancelled before Plan leaves the starting assignment —
// a valid plan with no moves (the anytime solver degrades, it does not fail) —
// while the same snapshot under a live context, with the TimeLimit a ceiling
// only, has moves to make: the empty plan is the context's doing. No clock
// decides the test.
func TestMILPBalancerHonorsContext(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := &Snapshot{NumNodes: 12, Ops: []OpStat{{Name: "op"}}}
	for k := 0; k < 600; k++ {
		s.Groups = append(s.Groups, GroupStat{Op: 0, Node: rng.Intn(12), Load: rng.Float64() * 5})
		s.Ops[0].Groups = append(s.Ops[0].Groups, k)
	}
	b := &MILPBalancer{TimeLimit: 30 * time.Second, Seed: 1}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan, err := b.Plan(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.GroupNode) != len(s.Groups) {
		t.Fatalf("plan has %d groups, want %d", len(plan.GroupNode), len(s.Groups))
	}
	for k, n := range plan.GroupNode {
		if n != s.Groups[k].Node {
			t.Fatalf("cancelled solve sends group %d from node %d to %d", k, s.Groups[k].Node, n)
		}
	}
	if len(plan.Moves) != 0 {
		t.Fatalf("cancelled solve made %d moves", len(plan.Moves))
	}

	live, err := b.Plan(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Moves) == 0 {
		t.Fatal("a live solve made no moves: the snapshot gives a cancelled one nothing to skip")
	}
}
