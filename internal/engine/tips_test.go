package engine

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/statestore"
)

// quiesce makes everything the controller has sent so far visible in the
// workers' shards: a round trip per worker drains its link up to here (frames
// are dispatched in order), then a ping drains each shard's mailbox. The round
// trip is a provision of no nodes, a request that changes nothing.
func (l cluster) quiesce(t *testing.T) {
	t.Helper()
	for _, w := range l.procs[1:] {
		if _, err := l.ctrl.rig.request(w.self, reqFrame{kind: rqProvision}); err != nil {
			t.Fatal(err)
		}
		w.pingLocalShards()
	}
}

// tipHolders reads where every key group's checkpoint tip is from the shards of
// every process: the node whose shard holds it, -1 for none. A tip held twice
// fails the test.
func (l cluster) tipHolders(t *testing.T) []int {
	t.Helper()
	l.quiesce(t)
	at := make([]int, l.ctrl.topo.NumGroups())
	for gid := range at {
		at[gid] = -1
	}
	for _, p := range l.procs {
		for i, n := range p.nodes {
			if n == nil || p.removed[i] {
				continue
			}
			for _, sh := range n.shards {
				for gid := range sh.tips {
					if at[gid] >= 0 {
						t.Fatalf("group %d has a tip on node %d and on node %d", gid, at[gid], i)
					}
					at[gid] = i
				}
			}
		}
	}
	return at
}

// checkTips is the invariant this engine keeps in every layout: the
// checkpoint tip of a key group lives on the shard that holds the group's
// live state and nowhere else, and it is the state the store materializes, at
// the store's version. It returns where the tips are (tipHolders).
func (l cluster) checkTips(t *testing.T, step string) []int {
	t.Helper()
	at := l.tipHolders(t)
	e := l.ctrl
	for gid, node := range at {
		if node < 0 {
			continue
		}
		if phys := e.baseAlloc[gid]; node != phys {
			t.Errorf("%s: group %d lives on node %d but has its tip on node %d", step, gid, phys, node)
			continue
		}
		var tip *statestore.Tip
		for _, p := range l.procs {
			if n := p.nodes[node]; n != nil {
				tip = p.shardAt(p.gsidFor(node, gid)).tips[gid]
			}
		}
		if tip == nil {
			t.Errorf("%s: group %d has its tip on node %d, but not on the shard that holds the group", step, gid, node)
			continue
		}
		want, ver, ok := e.CheckpointStore().Materialize(gid)
		if !ok || tip.Version() != ver || ver != e.CheckpointStore().Version(gid) {
			t.Errorf("%s: group %d tip at version %d, store at %d (ok=%v)", step, gid, tip.Version(), ver, ok)
		} else if !sameState(want, tip.State()) {
			t.Errorf("%s: group %d tip differs from the store's state", step, gid)
		}
	}
	return at
}

// checkSizings holds each delta the barrier of ps measured (Tip.Measure,
// which reads only the cells a state took since its tip) to a walk of every
// cell of the group's live state against its tip, in every process.
func (l cluster) checkSizings(t *testing.T, ps *PeriodStats) {
	t.Helper()
	if ps.CkptDeltaBytes == nil {
		return // no checkpoint yet: nothing was measured
	}
	l.quiesce(t)
	for _, p := range l.procs {
		for i, n := range p.nodes {
			if n == nil || p.removed[i] {
				continue
			}
			for _, sh := range n.shards {
				for gid, tip := range sh.tips {
					if want := statestore.NewTip(0, tip.State(), nil).Measure(0, sh.states[gid]); ps.CkptDeltaBytes[gid] != want {
						t.Errorf("period %d: group %d measured a %d-byte delta against its tip, the walk of every cell %d", ps.Period, gid, ps.CkptDeltaBytes[gid], want)
					}
				}
			}
		}
	}
}

// tipsWithTheGroups fails unless every group has its tip where it lives,
// except the groups in without, which must have no tip at all.
func tipsWithTheGroups(t *testing.T, step string, e *Engine, at []int, without ...int) {
	t.Helper()
	for gid, node := range at {
		if slices.Contains(without, gid) {
			if node != -1 {
				t.Errorf("%s: group %d should have no tip, but has one on node %d", step, gid, node)
			}
		} else if node != e.baseAlloc[gid] {
			t.Errorf("%s: group %d lives on node %d, its tip is on %d", step, gid, e.baseAlloc[gid], node)
		}
	}
}

// clusters builds the two deployments the tip tests run in: an engine that
// hosts everything, and a mixed cluster where the controller's shards (node 0)
// and two workers' (nodes 1 and 2) sit side by side.
func clusters(t *testing.T, topo func() *Topology, cfg Config) map[string]func() cluster {
	return map[string]func() cluster{
		"in-process": func() cluster { return memCluster(t, topo, cfg, nil) },
		"mixed":      func() cluster { return memCluster(t, topo, cfg, []int{0, 1, 2}) },
	}
}

// windowedGrowTopology is buildGrowTopology's job, except that the source
// opens period window with one tuple that empties key group kg's table, as a
// window boundary does: every cell the group's tip holds is gone from its
// state, so the delta since the tip outweighs the state.
func windowedGrowTopology(build, trickle, buildPeriods, kgs, kg, window int) *Topology {
	clearKey := ""
	for i := 0; clearKey == ""; i++ {
		if k := fmt.Sprintf("clear%d", i); int(codec.Hash(k)%uint64(kgs)) == kg {
			clearKey = k
		}
	}
	tp := buildGrowTopology(build, trickle, buildPeriods, kgs)
	src, grow := tp.sources[0], tp.ops[0]
	gen, proc := src.Gen, grow.Proc
	src.Gen = func(period int, emit Emit) {
		if period == window {
			emit(&Tuple{Key: clearKey, TS: int64(period * 100000)})
		}
		gen(period, emit)
	}
	grow.Proc = func(tu *Tuple, st *State, emit Emit) {
		if tu.Key == clearKey {
			st.ClearTable("seen")
			return
		}
		proc(tu, st, emit)
	}
	return tp
}

// TestTipLivesWithTheGroup drives checkpoints, a checkpoint-assisted move, a
// move that ships whole, a full move of a tipless group and a failure with
// recovery, and checks after every step that each group's tip is where the
// group is — on an engine that hosts everything and on a mixed cluster where
// the controller's shards and two workers' sit side by side — and after every
// period that the barrier sized each tipped group's delta as a walk of every
// cell does.
func TestTipLivesWithTheGroup(t *testing.T) {
	const kgs = 6
	cfg := Config{Nodes: 3}
	// Group 3's table empties at the start of period 4.
	topo := func() *Topology { return windowedGrowTopology(600, 60, 2, kgs, 3, 4) }
	layouts := clusters(t, topo, cfg)
	for name, build := range layouts {
		t.Run(name, func(t *testing.T) {
			l := build()
			defer l.stop()
			e := l.ctrl
			run := func() *PeriodStats {
				t.Helper()
				ps, err := e.RunPeriod()
				if err != nil {
					t.Fatal(err)
				}
				l.checkSizings(t, ps)
				return ps
			}
			stage := func(moves map[int]int) {
				t.Helper()
				plan := e.Allocation()
				for gid, to := range moves {
					plan[gid] = to
				}
				if err := e.ApplyPlan(plan); err != nil {
					t.Fatal(err)
				}
			}
			run()
			run()
			if at := l.checkTips(t, "before any checkpoint"); slices.ContainsFunc(at, func(n int) bool { return n >= 0 }) {
				t.Fatalf("tips %v before any checkpoint", at)
			}
			e.TakeCheckpoint()
			tipsWithTheGroups(t, "first checkpoint", e, l.checkTips(t, "first checkpoint"))

			// Checkpoint-assisted moves around the ring: hosted → remote, remote →
			// remote and remote → hosted in the mixed layout.
			stage(map[int]int{0: 1, 1: 2, 2: 0})
			if ps := run(); ps.Migrations != 3 || ps.MigratedDeltaBytes == 0 {
				t.Fatalf("period 3: %d migrations, %d delta bytes, want three delta moves", ps.Migrations, ps.MigratedDeltaBytes)
			}
			tipsWithTheGroups(t, "delta moves", e, l.checkTips(t, "delta moves"))

			// Period 4 empties group 3's table, so the barrier measures its
			// delta since the tip above its state: its move ships whole, and a
			// whole move strands the tip. Every other group keeps its own.
			run()
			stage(map[int]int{3: (e.Allocation()[3] + 1) % 3})
			if ps := run(); ps.Migrations != 1 || ps.MigratedDeltaBytes != 0 || ps.PrecopyBytes != 0 {
				t.Fatalf("period 5: %+v, want one whole move", ps)
			}
			tipsWithTheGroups(t, "whole move", e, l.checkTips(t, "whole move"), 3)

			// Group 3 has no tip now, so its next staged move ships full state.
			stage(map[int]int{3: (e.Allocation()[3] + 1) % 3})
			if ps := run(); ps.Migrations != 1 || ps.MigratedDeltaBytes != 0 || ps.PrecopyBytes != 0 {
				t.Fatalf("period 6: %+v, want one full-state move", ps)
			}
			tipsWithTheGroups(t, "full move", e, l.checkTips(t, "full move"), 3)
			e.TakeCheckpoint()
			tipsWithTheGroups(t, "second checkpoint", e, l.checkTips(t, "second checkpoint"))
			run()
			tipsWithTheGroups(t, "a period after the checkpoint", e, l.checkTips(t, "a period after the checkpoint"))

			// Node 1 crashes; its groups come back on node 0 (a hosted shard in
			// both layouts) and node 2 (a worker's in the mixed one).
			if err := e.FailNode(1); err != nil {
				t.Fatal(err)
			}
			if n, err := e.Recover(nil); err != nil || n == 0 {
				t.Fatalf("recover: %d groups, %v", n, err)
			}
			tipsWithTheGroups(t, "failure and recovery", e, l.checkTips(t, "failure and recovery"))
			run()
			tipsWithTheGroups(t, "a period after recovery", e, l.checkTips(t, "a period after recovery"))
			e.TakeCheckpoint()
			tipsWithTheGroups(t, "third checkpoint", e, l.checkTips(t, "third checkpoint"))
		})
	}
}

// forgetSizings replaces every tip of every process by a copy that has not
// been measured (statestore.Tip.Measure), so the next cut sizes each delta
// afresh. The last write is joined first: nothing uses the old tips then.
func (l cluster) forgetSizings(t *testing.T) {
	t.Helper()
	l.ctrl.CheckpointStore()
	l.quiesce(t)
	for _, p := range l.procs {
		for i, n := range p.nodes {
			if n == nil || p.removed[i] {
				continue
			}
			for _, sh := range n.shards {
				for gid, tip := range sh.tips {
					sh.tips[gid] = statestore.NewTip(tip.Version(), tip.State(), nil)
				}
			}
		}
	}
}

// TestCutTakesTheBarriersSizing: a cut takes the delta size the barrier
// measured against each tip instead of sizing it again, and is the cut a
// fresh whole-walk sizing makes — in every CheckpointStats field and in the store's
// bytes — at each place where the reading could have gone stale: a second
// checkpoint at one barrier, after delta moves, after FailNode, after Recover
// (which installs states and tips between the barrier and the cut), in one
// process and across workers.
func TestCutTakesTheBarriersSizing(t *testing.T) {
	cfg := Config{Nodes: 3}
	topo := func() *Topology { return buildGrowTopology(600, 60, 2, 9) }
	for name, build := range clusters(t, topo, cfg) {
		t.Run(name, func(t *testing.T) {
			script := func(fresh bool) ([]CheckpointStats, []byte) {
				l := build()
				defer l.stop()
				e := l.ctrl
				var stats []CheckpointStats
				ckpt := func() {
					if fresh {
						l.forgetSizings(t)
					}
					stats = append(stats, e.TakeCheckpoint())
				}
				run := func() *PeriodStats {
					t.Helper()
					ps, err := e.RunPeriod()
					if err != nil {
						t.Fatal(err)
					}
					return ps
				}
				run()
				run()
				ckpt()
				run()
				ckpt()
				ckpt() // a second cut at one barrier
				plan := e.Allocation()
				for gid := range plan {
					plan[gid] = (plan[gid] + 1) % 3
				}
				if err := e.ApplyPlan(plan); err != nil {
					t.Fatal(err)
				}
				if ps := run(); ps.MigratedDeltaBytes == 0 {
					t.Fatal("the rotation moved nothing by delta")
				}
				ckpt() // after delta moves
				run()
				if err := e.FailNode(1); err != nil {
					t.Fatal(err)
				}
				ckpt() // after FailNode
				if n, err := e.Recover(nil); err != nil || n == 0 {
					t.Fatalf("recover: %d groups, %v", n, err)
				}
				ckpt() // after Recover, at the same barrier
				run()
				ckpt()
				return stats, storePrint(e.CheckpointStore())
			}
			want, wantStore := script(true)
			got, gotStore := script(false)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("checkpoint %d: %+v, a fresh sizing gives %+v", i+1, got[i], want[i])
				}
			}
			if !bytes.Equal(gotStore, wantStore) {
				t.Error("the stores differ")
			}
		})
	}
}

// TestAdoptedTipTracksTheDeltaSince: a group that moves by delta a period
// after its checkpoint arrives as its base with the delta since applied, and
// the destination's tip must count those cells as changed too: the barrier
// after the move, and the one after that, size every tipped group as a walk
// of every cell does, in one process and across workers.
func TestAdoptedTipTracksTheDeltaSince(t *testing.T) {
	topo := func() *Topology { return buildGrowTopology(600, 60, 2, 6) }
	for name, build := range clusters(t, topo, Config{Nodes: 3}) {
		t.Run(name, func(t *testing.T) {
			l := build()
			defer l.stop()
			e := l.ctrl
			run := func() *PeriodStats {
				t.Helper()
				ps, err := e.RunPeriod()
				if err != nil {
					t.Fatal(err)
				}
				l.checkSizings(t, ps)
				return ps
			}
			run()
			run()
			e.TakeCheckpoint()
			run() // the cells the moves carry as their delta
			plan := e.Allocation()
			for gid := range plan {
				plan[gid] = (plan[gid] + 1) % 3
			}
			if err := e.ApplyPlan(plan); err != nil {
				t.Fatal(err)
			}
			if ps := run(); ps.Migrations != len(plan) || ps.MigratedDeltaBytes == 0 || ps.PrecopyBytes == 0 {
				t.Fatalf("period %d: %d migrations, %d delta and %d base bytes, want every group moved by delta", ps.Period, ps.Migrations, ps.MigratedDeltaBytes, ps.PrecopyBytes)
			}
			run()
		})
	}
}
