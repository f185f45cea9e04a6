package distrib

import (
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/statestore"
	"repro/internal/transport"
	"repro/internal/workload"
)

// writeGoroutines returns the stacks of every goroutine that is running a
// checkpoint write or waiting for one: a worker's write answering the
// controller, the controller's fetch of a worker's payloads, the controller's
// own write.
func writeGoroutines() []string {
	buf := make([]byte, 1<<20)
	var out []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "startWorkerWrite") || strings.Contains(g, "fetchCkptWrite") || strings.Contains(g, "TakeCheckpoint.func") {
			out = append(out, g)
		}
	}
	return out
}

// noWriteOutlivesClose waits a while for the write goroutines to end after
// Close and fails with their stacks if any is left.
func noWriteOutlivesClose(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		left := writeGoroutines()
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d checkpoint write goroutines outlived Close:\n%s", len(left), strings.Join(left, "\n\n"))
		}
	}
}

// groupsOn lists the gids allocated to node.
func groupsOn(e *engine.Engine, node int) []int {
	var gids []int
	for gid, n := range e.Allocation() {
		if n == node {
			gids = append(gids, gid)
		}
	}
	return gids
}

// snapshotStore materializes gids from the engine's store (joining any write
// in flight).
func snapshotStore(t *testing.T, e *engine.Engine, gids []int) map[int]*statestore.State {
	t.Helper()
	out := map[int]*statestore.State{}
	for _, gid := range gids {
		st, _, ok := e.CheckpointStore().Materialize(gid)
		if !ok {
			t.Fatalf("group %d is not in the store", gid)
		}
		out[gid] = st
	}
	return out
}

// recoverAndCheck fails node and recovers its groups, then checks that each
// came back as the store held it: a checkpoint right after Recover finds the
// restored states equal to their tips (nothing to write for them) and leaves
// their stored states as they were.
func recoverAndCheck(t *testing.T, e *engine.Engine, node int, gids []int, want map[int]*statestore.State) {
	t.Helper()
	if err := e.FailNode(node); err != nil {
		t.Fatal(err)
	}
	if n, err := e.Recover(nil); err != nil || n != len(gids) {
		t.Fatalf("recovered %d groups (%v), want %d", n, err, len(gids))
	}
	e.TakeCheckpoint()
	got := snapshotStore(t, e, gids)
	for _, gid := range gids {
		if !statestore.Diff(got[gid], want[gid]).Empty() || !statestore.Diff(want[gid], got[gid]).Empty() {
			t.Errorf("group %d did not come back as its checkpoint", gid)
		}
	}
}

// TestWorkerDeathWithWriteInFlight: a worker that dies after its cut, with the
// payloads of its write still on the way, costs the controller no more than
// any other death. Worker 2's link to the controller lets its cut's summary
// through and stalls every later frame — its write's reply among them — for
// far longer than the test; the worker then dies. The join right after returns
// as soon as the death is noticed, the store keeps the dead worker's groups at
// their previous checkpoint (and everyone else's at this one), Recover brings
// them back from it, the cluster runs on, and no write goroutine outlives
// Close on either side.
func TestWorkerDeathWithWriteInFlight(t *testing.T) {
	const stall = 30 * time.Second
	var victim *lateChaos
	e, stop, err := StartMem(equivSpec(), 2, func(peer int, ep transport.Endpoint) transport.Endpoint {
		if peer != 2 {
			return ep
		}
		victim = &lateChaos{Endpoint: ep}
		return victim
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	run := func() {
		t.Helper()
		if _, err := e.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	e.TakeCheckpoint()
	lost := groupsOn(e, 1) // DefaultPeers(3, 2): node 1 is worker 2's
	prev := snapshotStore(t, e, lost)
	run()
	victim.arm(transport.ChaosOptions{StallEvery: 2, StallFor: stall})
	e.TakeCheckpoint()
	victim.Endpoint.Close()

	start := time.Now()
	store := e.CheckpointStore()
	if waited := time.Since(start); waited > stall/3 {
		t.Fatalf("the join waited %v for a dead worker's write", waited)
	}
	dead := map[int]bool{}
	for _, gid := range lost {
		dead[gid] = true
	}
	for _, gid := range store.Groups() {
		want := 3
		if dead[gid] {
			want = 2
		}
		if v := store.Version(gid); v != want {
			t.Errorf("group %d (dead worker's: %v) is at version %d, want %d", gid, dead[gid], v, want)
		}
	}
	recoverAndCheck(t, e, 1, lost, prev)
	run()
	stop()
	noWriteOutlivesClose(t)
}

// TestWorkerKilledAfterItsCut is the same death as a real process: worker 2
// is SIGKILLed right after the controller has its cut's summary, whether or
// not its payloads are out yet. The join returns once the death is noticed;
// the dead worker's groups are at one checkpoint, this one or the previous,
// all of them alike (one reply carries them); Recover brings them back from
// it; and no controller goroutine is left waiting on the dead worker.
func TestWorkerKilledAfterItsCut(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes; skipping in -short")
	}
	spec := JobSpec{
		Job:       "rj2",
		Workload:  workload.JobConfig{KeyGroups: 12, Rate: 400, Seed: 7},
		Engine:    engine.Config{Nodes: 3},
		NodePeers: DefaultPeers(3, 2),
	}
	host, err := transport.ListenCluster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	survivor := spawnWorker(t, host.Addr())
	defer survivor.Process.Kill() //nolint:errcheck
	defer survivor.Wait()         //nolint:errcheck
	if err := host.Accept(1); err != nil {
		t.Fatal(err)
	}
	victim := spawnWorker(t, host.Addr())
	defer victim.Process.Kill() //nolint:errcheck
	defer victim.Wait()         //nolint:errcheck
	e, err := StartHost(host, 2, spec)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			e.Close()
		}
	}()
	run := func() {
		t.Helper()
		if _, err := e.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	e.TakeCheckpoint()
	lost := groupsOn(e, 1)
	run()
	e.TakeCheckpoint()
	kill(t, victim)

	start := time.Now()
	store := e.CheckpointStore()
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("the join waited %v for a dead worker's write", waited)
	}
	ver := store.Version(lost[0])
	for _, gid := range lost {
		if v := store.Version(gid); v != ver || (v != 2 && v != 3) {
			t.Fatalf("group %d of the dead worker is at version %d, group %d at %d: want all at 2 or all at 3", gid, v, lost[0], ver)
		}
	}
	recoverAndCheck(t, e, 1, lost, snapshotStore(t, e, lost))
	run()
	e.Close()
	closed = true
	noWriteOutlivesClose(t)
}

// kill SIGKILLs a worker process and reaps it.
func kill(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck // killed
}
