package controller

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// pingPongBalancer moves group 0 between nodes 0 and 1 every period —
// a deterministic migration source for exercising the checkpoint-assisted
// transfer path end to end.
type pingPongBalancer struct{}

func (pingPongBalancer) Name() string { return "pingpong" }

func (pingPongBalancer) Plan(_ context.Context, s *core.Snapshot) (*core.Plan, error) {
	groupNode := make([]int, len(s.Groups))
	for k, g := range s.Groups {
		groupNode[k] = g.Node
	}
	groupNode[0] = 1 - groupNode[0]
	return core.PlanFromAssignment(s, groupNode, nil), nil
}

// TestCheckpointCadenceArmsDeltaMigration: the controller owns the
// checkpoint cadence, and once a checkpoint is warm, the engine's planned
// moves ship deltas instead of full states.
func TestCheckpointCadenceArmsDeltaMigration(t *testing.T) {
	topo := testTopology(400, 8, nil)
	eng, err := engine.New(topo, engine.Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	c := New(eng, Options{
		Balancer:        pingPongBalancer{},
		CheckpointEvery: 2,
		TargetAvgLoad:   -1,
	})
	m, err := c.Run(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Checkpoints != 4 {
		t.Fatalf("Checkpoints = %d, want 4 (every 2nd of 8 periods)", m.Checkpoints)
	}
	if m.CkptBytes == 0 {
		t.Fatal("checkpoints appended no bytes")
	}
	if m.PlansApplied != 8 {
		t.Fatalf("PlansApplied = %d, want 8", m.PlansApplied)
	}
	// Group 0 moved every period; once checkpointed, those moves must have
	// used the checkpoint-assisted path (pre-copy + synchronous delta).
	if m.PrecopyBytes == 0 || m.MigratedDeltaBytes == 0 {
		t.Fatalf("no checkpoint-assisted transfers: precopy=%d delta=%d", m.PrecopyBytes, m.MigratedDeltaBytes)
	}
}

// TestCheckpointCadenceInPipelinedMode: the cadence and the multi-period
// transfer scheduling live in the engine/controller boundary, so pipelined
// planning checkpoints identically.
func TestCheckpointCadenceInPipelinedMode(t *testing.T) {
	topo := testTopology(400, 8, nil)
	eng, err := engine.New(topo, engine.Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	c := New(eng, Options{
		Balancer:        pingPongBalancer{},
		CheckpointEvery: 3,
		Pipelined:       true,
		TargetAvgLoad:   -1,
	})
	m, err := c.Run(context.Background(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if m.Checkpoints != 3 {
		t.Fatalf("Checkpoints = %d, want 3 (every 3rd of 9 periods)", m.Checkpoints)
	}
	if m.PrecopyBytes == 0 || m.MigratedDeltaBytes == 0 {
		t.Fatalf("no checkpoint-assisted transfers in pipelined mode: precopy=%d delta=%d",
			m.PrecopyBytes, m.MigratedDeltaBytes)
	}
}
