package core

import (
	"context"
	"fmt"
)

// ScaleDecision is the horizontal-scaling action for one adaptation period.
type ScaleDecision struct {
	// AddNodes requests this many new nodes (appended after the current
	// ones, with unit capacity: weights are fixed when the cluster forms).
	AddNodes int
	// MarkForRemoval lists alive nodes to mark for removal; the balancer
	// will drain them over the following periods (Lemma 2) and the
	// framework terminates them once empty.
	MarkForRemoval []int
}

// IsZero reports whether the decision changes nothing.
func (d ScaleDecision) IsZero() bool { return d.AddNodes == 0 && len(d.MarkForRemoval) == 0 }

// Apply turns s into the cluster the decision leaves behind, the one the
// integrative re-plan runs on: the added nodes are appended alive with
// capacity 1 (a Capacity vector gets a 1 for each), and the marked nodes are
// kill-marked. A malformed decision is an error and leaves s unchanged.
func (d ScaleDecision) Apply(s *Snapshot) error {
	for _, n := range d.MarkForRemoval {
		if n < 0 || n >= s.NumNodes {
			return fmt.Errorf("core: scaler marked invalid node %d", n)
		}
	}
	if d.IsZero() {
		return nil
	}
	if s.Capacity != nil {
		for range d.AddNodes {
			s.Capacity = append(s.Capacity, 1)
		}
	}
	if s.Kill == nil {
		s.Kill = make([]bool, s.NumNodes)
	}
	s.Kill = append(s.Kill, make([]bool, d.AddNodes)...)
	for _, n := range d.MarkForRemoval {
		s.Kill[n] = true
	}
	s.NumNodes += d.AddNodes
	return nil
}

// Scaler makes horizontal-scaling decisions. Implementations receive the
// tentative allocation plan (Algorithm 1, line 5) so that problems solvable
// by rebalancing or collocation alone do not trigger scaling.
type Scaler interface {
	Decide(s *Snapshot, plan *Plan) ScaleDecision
}

// Framework is the paper's integrative adaptation framework (Algorithm 1).
// It is invoked once per statistics period.
type Framework struct {
	Balancer Balancer
	// Scaler is optional; without it the framework only rebalances.
	Scaler Scaler
}

// Outcome is the result of one adaptation step.
type Outcome struct {
	// Plan is the allocation to apply (over the possibly-enlarged cluster).
	Plan *Plan
	// Terminate lists kill-marked nodes that hold no key groups and can be
	// shut down now (Algorithm 1, lines 1-3).
	Terminate []int
	// Scale is the scaling decision taken this period (zero if none).
	Scale ScaleDecision
	// NumNodes is the node count the plan's node indices refer to
	// (snapshot's count plus Scale.AddNodes).
	NumNodes int
}

// Step runs one adaptation period over the snapshot. The caller applies the
// returned plan (migrations), terminates the listed nodes, and provisions
// any requested ones before the next period. ctx bounds the balancer
// invocations: a cancelled context makes them return early (best plan so
// far, or an error the caller should treat as "no plan").
func (f *Framework) Step(ctx context.Context, s *Snapshot) (*Outcome, error) {
	if f.Balancer == nil {
		return nil, fmt.Errorf("core: framework has no balancer")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out := &Outcome{NumNodes: s.NumNodes}

	// Lines 1-3: kill-marked nodes with no key groups can be terminated.
	occupied := make([]bool, s.NumNodes)
	for _, g := range s.Groups {
		occupied[g.Node] = true
	}
	for i := 0; i < s.NumNodes; i++ {
		if s.Killed(i) && !occupied[i] {
			out.Terminate = append(out.Terminate, i)
		}
	}

	// Line 4: tentative allocation plan.
	plan, err := f.Balancer.Plan(ctx, s)
	if err != nil {
		return nil, fmt.Errorf("core: tentative plan: %w", err)
	}
	out.Plan = plan

	// Lines 5-7: scaling decision based on the tentative plan, then an
	// integrative re-plan over the adjusted cluster.
	if f.Scaler == nil {
		return out, nil
	}
	dec := f.Scaler.Decide(s, plan)
	if dec.IsZero() {
		return out, nil
	}
	s2 := s.Clone()
	if err := dec.Apply(s2); err != nil {
		return nil, err
	}
	plan2, err := f.Balancer.Plan(ctx, s2)
	if err != nil {
		return nil, fmt.Errorf("core: integrative re-plan after scaling: %w", err)
	}
	out.Plan = plan2
	out.Scale = dec
	out.NumNodes = s2.NumNodes
	return out, nil
}
