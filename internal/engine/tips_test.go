package engine

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/statestore"
	"repro/internal/transport"
)

// tipLayout is one deployment of the tip-invariant script: the controller and
// every process of the cluster (the controller first), so the test can look
// into remote shards too.
type tipLayout struct {
	ctrl  *Engine
	procs []*Engine
	stop  func()
}

// quiesce makes everything the controller has sent so far visible in the
// workers' shards: a round trip per worker drains its link up to here (frames
// are dispatched in order), then a ping drains each shard's mailbox.
func (l tipLayout) quiesce(t *testing.T) {
	t.Helper()
	for _, w := range l.procs[1:] {
		if _, err := l.ctrl.rig.request(w.self, reqFrame{kind: rqProgress}); err != nil {
			t.Fatal(err)
		}
		w.pingLocalShards()
	}
}

// checkTips is the invariant this engine keeps in every layout: the
// checkpoint tip of a key group lives on the shard that holds the group's
// live state and nowhere else, exactly when the controller's tipNode says so,
// and it is the state the store materializes, at the store's version.
func (l tipLayout) checkTips(t *testing.T, step string) {
	t.Helper()
	l.quiesce(t)
	e := l.ctrl
	for gid, phys := range e.baseAlloc {
		resident := e.tipNode != nil && e.tipNode[gid] == phys
		for _, p := range l.procs {
			for i, n := range p.nodes {
				if n == nil {
					continue
				}
				for _, sh := range n.shards {
					tip := sh.tips[gid]
					holder := resident && i == phys && sh == p.shardFor(i, gid)
					switch {
					case tip != nil && !holder:
						t.Errorf("%s: group %d (on node %d, tipNode %v) has a tip on node %d of peer %d", step, gid, phys, e.tipNode, i, p.self)
					case tip == nil && holder:
						t.Errorf("%s: group %d has no tip on node %d where tipNode puts it", step, gid, phys)
					case holder:
						want, ver, ok := e.CheckpointStore().Materialize(gid)
						if !ok || tip.Version() != ver || ver != e.CheckpointStore().Version(gid) {
							t.Errorf("%s: group %d tip at version %d, store at %d (ok=%v)", step, gid, tip.Version(), ver, ok)
						} else if !statestore.Diff(want, tip.State()).Empty() || !statestore.Diff(tip.State(), want).Empty() {
							t.Errorf("%s: group %d tip differs from the store's state", step, gid)
						}
					}
				}
			}
		}
	}
}

// tipLayouts builds the two deployments the tip tests run in: an engine that
// hosts everything, and a mixed cluster where the controller's shards (node 0)
// and two workers' (nodes 1 and 2) sit side by side.
func tipLayouts(t *testing.T, topo func() *Topology, cfg Config) map[string]func() tipLayout {
	return map[string]func() tipLayout{
		"in-process": func() tipLayout {
			e, err := New(topo(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			return tipLayout{ctrl: e, procs: []*Engine{e}, stop: func() { e.Close() }}
		},
		"mixed": func() tipLayout {
			eps := transport.NewMemCluster(2)
			peerOf := []int{0, 1, 2}
			l := tipLayout{procs: make([]*Engine, 3)}
			var wg sync.WaitGroup
			for i := 1; i <= 2; i++ {
				w, err := NewWorker(topo(), cfg, nil, eps[i], peerOf)
				if err != nil {
					t.Fatal(err)
				}
				l.procs[i] = w
				wg.Add(1)
				go func() {
					defer wg.Done()
					w.ServeWorker() //nolint:errcheck // ends on the controller's bye
				}()
			}
			e, err := NewDistributed(topo(), cfg, nil, eps[0], peerOf)
			if err != nil {
				t.Fatal(err)
			}
			l.ctrl, l.procs[0] = e, e
			l.stop = func() { e.Close(); wg.Wait() }
			return l
		},
	}
}

// TestTipLivesWithTheGroup drives checkpoints, a checkpoint-assisted move, a
// hot move, a full move and a failure with recovery, and checks after every
// step that each group's tip is where the group is — on an engine that hosts
// everything and on a mixed cluster where the controller's shards and two
// workers' sit side by side.
func TestTipLivesWithTheGroup(t *testing.T) {
	const kgs = 6
	cfg := Config{Nodes: 3, SubPeriods: 2, PrecopyChunkBytes: -1}
	topo := func() *Topology { return buildGrowTopology(600, 60, 2, kgs) }
	layouts := tipLayouts(t, topo, cfg)
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
			// Group 3 hot-moves one node forward in the middle of period 4.
			e.SetSubObserver(func(snap *core.Snapshot, period, sub int) []core.Move {
				if period != 4 || sub != 1 {
					return nil
				}
				from := snap.Groups[3].Node
				return []core.Move{{Group: 3, From: from, To: (from + 1) % 3}}
			})

			run()
			run()
			l.checkTips(t, "before any checkpoint")
			e.TakeCheckpoint()
			l.checkTips(t, "first checkpoint")

			// Checkpoint-assisted moves around the ring: hosted → remote, remote →
			// remote and remote → hosted in the mixed layout.
			stage(map[int]int{0: 1, 1: 2, 2: 0})
			if ps := run(); ps.Migrations != 3 || ps.MigratedDeltaBytes == 0 {
				t.Fatalf("period 3: %d migrations, %d delta bytes, want three delta moves", ps.Migrations, ps.MigratedDeltaBytes)
			}
			l.checkTips(t, "delta moves")

			if ps := run(); ps.HotMoves != 1 {
				t.Fatalf("period 4: %d hot moves, want 1", ps.HotMoves)
			}
			l.checkTips(t, "hot move")
			if e.tipNode[3] != -1 {
				t.Fatalf("hot-moved group 3 still has tipNode %d", e.tipNode[3])
			}

			// Group 3 has no tip now, so its next staged move ships full state.
			stage(map[int]int{3: (e.Allocation()[3] + 1) % 3})
			if ps := run(); ps.Migrations != 1 || ps.MigratedDeltaBytes != 0 || ps.PrecopyBytes != 0 {
				t.Fatalf("period 5: %+v, want one full-state move", ps)
			}
			l.checkTips(t, "full move")
			e.TakeCheckpoint()
			l.checkTips(t, "second checkpoint")
			run()
			l.checkTips(t, "a period after the checkpoint")

			// Node 1 crashes; its groups come back on node 0 (a hosted shard in
			// both layouts) and node 2 (a worker's in the mixed one).
			if err := e.FailNode(1); err != nil {
				t.Fatal(err)
			}
			if n, err := e.Recover(nil); err != nil || n == 0 {
				t.Fatalf("recover: %d groups, %v", n, err)
			}
			l.checkTips(t, "failure and recovery")
			run()
			l.checkTips(t, "a period after recovery")
			e.TakeCheckpoint()
			l.checkTips(t, "third checkpoint")
			for gid, n := range e.tipNode {
				if n != e.baseAlloc[gid] {
					t.Fatalf("after a checkpoint group %d lives on node %d but its tip on %d", gid, e.baseAlloc[gid], n)
				}
			}
		})
	}
}

// forgetSizings replaces every tip of every process by a copy that has not
// been measured (statestore.Tip.Measure), so the next cut sizes each delta
// afresh. The last write is joined first: nothing uses the old tips then.
func (l tipLayout) forgetSizings(t *testing.T) {
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
// fresh DiffSize makes — in every CheckpointStats field and in the store's
// bytes — at each place where the reading could have gone stale: a second
// checkpoint at one barrier, after delta moves, after FailNode, after Recover
// (which installs states and tips between the barrier and the cut), in one
// process and across workers.
func TestCutTakesTheBarriersSizing(t *testing.T) {
	cfg := Config{Nodes: 3, PrecopyChunkBytes: -1}
	topo := func() *Topology { return buildGrowTopology(600, 60, 2, 9) }
	for name, build := range tipLayouts(t, topo, cfg) {
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
				return stats, e.CheckpointStore().Encode(nil)
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
