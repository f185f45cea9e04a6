package engine

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/statestore"
	"repro/internal/transport"
)

// cluster is an engine and every process of its cluster, the controller
// first, so a test can look into remote shards too.
type cluster struct {
	ctrl  *Engine
	procs []*Engine
	stop  func()
}

// memCluster builds a cluster of cfg.Nodes nodes over a mem network in which
// peerOf[i] names the process that hosts node i: 0 the controller, 1, 2, ...
// a worker engine each. A nil peerOf hosts every node on the controller
// (New). stop closes the controller and waits for the workers.
func memCluster(t *testing.T, topo func() *Topology, cfg Config, peerOf []int) cluster {
	t.Helper()
	if peerOf == nil {
		e, err := New(topo(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return cluster{ctrl: e, procs: []*Engine{e}, stop: e.Close}
	}
	eps := transport.NewMemCluster(slices.Max(peerOf))
	c := cluster{procs: make([]*Engine, len(eps))}
	var wg sync.WaitGroup
	for i := 1; i < len(eps); i++ {
		w, err := NewWorker(topo(), cfg, nil, eps[i], peerOf)
		if err != nil {
			t.Fatal(err)
		}
		c.procs[i] = w
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
	c.ctrl, c.procs[0] = e, e
	c.stop = func() { e.Close(); wg.Wait() }
	return c
}

// TestMoveRightAfterCheckpointShipsItsDelta: a checkpoint-assisted move staged
// for the period right after a checkpoint — whose write is still running when
// that period begins — pre-copies that checkpoint and ships the delta against
// it, byte for byte as when the checkpoint reached the store before
// TakeCheckpoint returned, with one shard or three per node and with the nodes
// in one process or across two workers. It fails if the period's moves read
// the store before the write is joined: the first checkpoint would be missing
// (the moves ship whole), the second one a version behind the sources' tips.
func TestMoveRightAfterCheckpointShipsItsDelta(t *testing.T) {
	topo := func() *Topology { return buildGrowTopology(900, 60, 2, 9) }
	for _, shards := range []int{1, 3} {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				cfg := Config{Nodes: 3, ShardsPerNode: shards}
				var peerOf []int
				if workers > 0 {
					peerOf = []int{0, 1, 2}
				}
				type moved struct {
					migrations, deferred int
					delta, precopy       int64
					latency              float64
				}
				script := func(joinAtOnce bool) ([]moved, []CheckpointStats, []byte) {
					c := memCluster(t, topo, cfg, peerOf)
					defer c.stop()
					e := c.ctrl
					var got []moved
					var stats []CheckpointStats
					for p := 1; p <= 7; p++ {
						if p == 3 || p == 6 {
							stats = append(stats, e.TakeCheckpoint())
							if joinAtOnce {
								e.CheckpointStore()
							}
							plan := e.Allocation()
							for gid := range plan {
								plan[gid] = (plan[gid] + 1) % 3
							}
							if err := e.ApplyPlan(plan); err != nil {
								t.Fatal(err)
							}
						}
						ps, err := e.RunPeriod()
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, moved{ps.Migrations, ps.DeferredMoves, ps.MigratedDeltaBytes, ps.PrecopyBytes, ps.MigrationLatency})
					}
					return got, stats, storePrint(e.CheckpointStore())
				}
				want, wantStats, wantStore := script(true)
				got, gotStats, gotStore := script(false)
				for _, p := range []int{3, 6} {
					if want[p-1].delta == 0 || want[p-1].migrations != 9 {
						t.Fatalf("period %d of the reference: %+v, want nine moves by delta", p, want[p-1])
					}
				}
				for p := range want {
					if got[p] != want[p] {
						t.Errorf("period %d: moves %+v, want %+v", p+1, got[p], want[p])
					}
				}
				for i := range wantStats {
					if gotStats[i] != wantStats[i] {
						t.Errorf("checkpoint %d: %+v, want %+v", i+1, gotStats[i], wantStats[i])
					}
				}
				if !bytes.Equal(gotStore, wantStore) {
					t.Error("the stores differ")
				}
			})
		}
	}
}

// TestRecoverRightAfterCheckpoint: a node that fails right after a checkpoint,
// with the write still running, comes back from that checkpoint and not the
// one before.
func TestRecoverRightAfterCheckpoint(t *testing.T) {
	e, err := New(buildGrowTopology(900, 60, 2, 9), Config{Nodes: 3, ShardsPerNode: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for p := 1; p <= 3; p++ {
		if p == 3 {
			e.TakeCheckpoint()
		}
		if _, err := e.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	lost := map[int]*statestore.State{}
	for gid, st := range e.nodes[1].allStates() {
		lost[gid] = st.Clone()
	}
	if len(lost) == 0 {
		t.Fatal("node 1 holds no state")
	}
	e.TakeCheckpoint()
	if err := e.FailNode(1); err != nil {
		t.Fatal(err)
	}
	if n, err := e.Recover(nil); err != nil || n != len(lost) {
		t.Fatalf("recovered %d groups (%v), want %d", n, err, len(lost))
	}
	for gid, want := range lost {
		node := e.Allocation()[gid]
		got := e.nodes[node].stateOf(gid)
		if v := e.CheckpointStore().Version(gid); v != 3 {
			t.Errorf("group %d: store at version %d, want 3", gid, v)
		}
		if got == nil || !sameState(got, want) {
			t.Errorf("group %d came back on node %d other than it was at the checkpoint", gid, node)
		}
	}
}

// TestCloseJoinsTheCheckpointWrite: Close with a checkpoint write in flight
// returns after the write, and the engine leaves no goroutine behind.
func TestCloseJoinsTheCheckpointWrite(t *testing.T) {
	engineGoroutines := func() (n int, stacks string) {
		buf := make([]byte, 1<<20)
		stacks = string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(stacks, "\n\n") {
			if strings.Contains(g, "repro/internal/engine.") && !strings.Contains(g, "TestCloseJoinsTheCheckpointWrite") {
				n++
			}
		}
		return n, stacks
	}
	before, _ := engineGoroutines()
	e, err := New(buildGrowTopology(20000, 60, 2, 4), Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if _, err := e.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	e.TakeCheckpoint() // 40,000 cells to encode
	e.Close()
	if _, stacks := engineGoroutines(); strings.Contains(stacks, "ckptWrite") {
		t.Fatalf("the checkpoint write outlived Close:\n%s", stacks)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		n, stacks := engineGoroutines()
		if n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d engine goroutines 10 s after Close, %d before the engine:\n%s", n, before, stacks)
		}
	}
}
