package baseline

import (
	"context"
	"testing"

	"repro/internal/core"
)

// twoOpSnapshot builds op0 -> op1 with g groups each over n nodes, with
// configurable per-group loads and a One-To-One communication pattern.
func twoOpSnapshot(n, g int) *core.Snapshot {
	s := &core.Snapshot{
		NumNodes: n,
		Ops: []core.OpStat{
			{Name: "up", Downstream: []int{1}},
			{Name: "down"},
		},
	}
	var comm core.CommBuilder
	comm.Reset(2 * g)
	for i := 0; i < g; i++ {
		s.Ops[0].Groups = append(s.Ops[0].Groups, i)
		s.Groups = append(s.Groups, core.GroupStat{Op: 0, Node: i % n, Load: 5})
	}
	for i := 0; i < g; i++ {
		s.Ops[1].Groups = append(s.Ops[1].Groups, g+i)
		s.Groups = append(s.Groups, core.GroupStat{Op: 1, Node: (i + 1) % n, Load: 5})
		comm.Add(i, g+i, 10)
	}
	s.Comm = comm.Build()
	return s
}

func TestFluxReducesLoadDistance(t *testing.T) {
	s := twoOpSnapshot(4, 16)
	// Skew: stack extra load on node 0's groups.
	for i := range s.Groups {
		if s.Groups[i].Node == 0 {
			s.Groups[i].Load = 12
		}
	}
	s.MaxMigrations = 6
	before := s.LoadDistance()
	plan, err := (Flux{}).Plan(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) == 0 || len(plan.Moves) > 6 {
		t.Fatalf("moves = %d, want 1..6", len(plan.Moves))
	}
	for k, node := range plan.GroupNode {
		s.Groups[k].Node = node
	}
	after := s.LoadDistance()
	if after >= before {
		t.Fatalf("flux did not improve: %v -> %v", before, after)
	}
}

func TestFluxRespectsBudgetAndKill(t *testing.T) {
	s := twoOpSnapshot(4, 16)
	s.MaxMigrations = 2
	s.Kill = []bool{false, false, false, true}
	plan, err := (Flux{}).Plan(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) > 2 {
		t.Fatalf("moves = %d > budget 2", len(plan.Moves))
	}
	for _, m := range plan.Moves {
		if m.To == 3 {
			t.Fatal("flux moved load onto a kill-marked node")
		}
	}
}

// TestFluxNoMovesWhenBalanced also plans the snapshot without its traffic
// (Comm nil: no traffic observed).
func TestFluxNoMovesWhenBalanced(t *testing.T) {
	for _, withComm := range []bool{true, false} {
		s := twoOpSnapshot(4, 16) // perfectly uniform loads
		if !withComm {
			s.Comm = nil
		}
		s.MaxMigrations = 10
		plan, err := (Flux{}).Plan(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		// A group move of load 5 cannot reduce a 0 imbalance; "suitable"
		// filtering must prevent churn.
		if len(plan.Moves) != 0 {
			t.Fatalf("comm=%v: flux churned %d moves on a balanced cluster", withComm, len(plan.Moves))
		}
	}
}

func TestCOLACollocatesImmediately(t *testing.T) {
	s := twoOpSnapshot(4, 16)
	if cf := s.CollocationFactor(); cf != 0 {
		t.Fatalf("initial collocation = %v", cf)
	}
	c := &COLA{Seed: 1}
	plan, err := c.Plan(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	cf := core.CollocationOf(s, plan.GroupNode)
	if cf < 85 {
		t.Fatalf("COLA collocation = %v, want >= 85 (one-shot optimization)", cf)
	}
	// Load must stay reasonably balanced: each node should get ~8 groups.
	utils := make([]float64, s.NumNodes)
	for k, n := range plan.GroupNode {
		utils[n] += s.Groups[k].Load
	}
	for i, u := range utils {
		if u < 20 || u > 60 {
			t.Fatalf("node %d load %v badly unbalanced: %v", i, u, utils)
		}
	}
}

func TestCOLAMigratesHeavily(t *testing.T) {
	// The defining cost of COLA: re-optimizing from scratch moves a large
	// share of the key groups even when the system is already balanced.
	s := twoOpSnapshot(10, 100)
	c := &COLA{Seed: 2}
	plan, err := c.Plan(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) < len(s.Groups)/4 {
		t.Fatalf("COLA moved only %d of %d groups; expected heavy migration",
			len(plan.Moves), len(s.Groups))
	}
}

// TestCOLAAvoidsKillNodes also plans the snapshot without its traffic (Comm
// nil: no traffic observed).
func TestCOLAAvoidsKillNodes(t *testing.T) {
	for _, withComm := range []bool{true, false} {
		s := twoOpSnapshot(4, 16)
		if !withComm {
			s.Comm = nil
		}
		s.Kill = []bool{false, true, false, false}
		plan, err := (&COLA{Seed: 3}).Plan(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		for k, n := range plan.GroupNode {
			if n == 1 {
				t.Fatalf("comm=%v: group %d placed on kill-marked node", withComm, k)
			}
		}
	}
}
