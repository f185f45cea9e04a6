package distrib

import (
	"fmt"
	"os"
	"os/exec"
	"testing"

	"repro/internal/codec"
	"repro/internal/engine"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestMain doubles as the worker-process entry point: the failure test
// re-execs this test binary with ALBIC_TEST_WORKER set to the controller
// address, turning it into an albic-node without needing a separate build.
// Either way it recycles no frame without scribbling over it first (see
// internal/engine's TestMain).
func TestMain(m *testing.M) {
	codec.ScribbleOnPutBuf()
	if addr := os.Getenv("ALBIC_TEST_WORKER"); addr != "" {
		if err := RunWorker(addr, "127.0.0.1:0", 1); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func spawnWorker(t *testing.T, ctrlAddr string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=NONE")
	cmd.Env = append(os.Environ(), "ALBIC_TEST_WORKER="+ctrlAddr)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// TestFailureBeforeMove is the process-level crash drill: a real worker
// process is SIGKILLed after a plan moving checkpointed groups off it toward a
// survivor is staged, before the period that would move them. The controller
// must (a) surface the death as a period error instead of wedging on the
// barrier, (b) fail the dead process's node and recover its groups from the
// checkpoint store onto survivors, and (c) keep running full periods
// afterwards.
func TestFailureBeforeMove(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes; skipping in -short")
	}
	spec := JobSpec{
		Job:       "rj2",
		Workload:  workload.JobConfig{KeyGroups: 12, Rate: 400, Seed: 7},
		Engine:    engine.Config{Nodes: 3},
		NodePeers: DefaultPeers(3, 2), // node 0,2 -> peer 1; node 1 -> peer 2
	}
	host, err := transport.ListenCluster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Join strictly in order so peer ids are deterministic: the first
	// spawned process becomes peer 1 (the survivor), the second peer 2
	// (the victim, hosting node 1 and nothing else).
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
	defer e.Close()

	var refTuplesIn int64
	for p := 0; p < 2; p++ {
		ps, err := e.RunPeriod()
		if err != nil {
			t.Fatalf("period %d: %v", p+1, err)
		}
		refTuplesIn = ps.TuplesIn
	}
	cs := e.TakeCheckpoint()
	if cs.Groups == 0 || cs.NewBytes == 0 {
		t.Fatalf("checkpoint: %+v", cs)
	}

	// Stage moves of two stateful (sumdelay) groups off the victim's node 1
	// toward the survivor: both would ship their checkpoint and a delta at
	// the next boundary.
	alloc := append([]int(nil), e.Allocation()...)
	if alloc[13] != 1 || alloc[16] != 1 {
		t.Fatalf("unexpected initial allocation: %v", alloc)
	}
	alloc[13], alloc[16] = 0, 2
	if err := e.ApplyPlan(alloc); err != nil {
		t.Fatal(err)
	}

	// SIGKILL the victim before the move's period. That period must fail
	// fast — a wedged barrier would hang until the test timeout.
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait() //nolint:errcheck
	if _, err := e.RunPeriod(); err == nil {
		t.Fatal("period succeeded with a dead worker")
	}

	// Fail the dead process's node and recover from the checkpoint store
	// onto the survivor's nodes.
	if err := e.FailNode(1); err != nil {
		t.Fatal(err)
	}
	recovered, err := e.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 physically held 8 of the 24 groups (round-robin over 3 nodes).
	if recovered != 8 {
		t.Fatalf("recovered %d groups, want 8", recovered)
	}
	for gid, n := range e.Allocation() {
		if n == 1 {
			t.Fatalf("group %d still allocated to failed node 1", gid)
		}
	}

	// Full periods continue on the survivor: every tuple flows again and
	// the wire accounting invariant still holds exactly.
	for p := 0; p < 2; p++ {
		ps, err := e.RunPeriod()
		if err != nil {
			t.Fatalf("post-recovery period %d: %v", p+1, err)
		}
		if ps.TuplesIn != refTuplesIn {
			t.Fatalf("post-recovery TuplesIn = %d, want %d", ps.TuplesIn, refTuplesIn)
		}
		if got, want := ps.BytesCrossNodeIn, ps.BytesCrossNode+ps.SrcBytesCrossNode; got != want {
			t.Fatalf("post-recovery BytesCrossNodeIn = %d, want %d", got, want)
		}
	}
	if cs := e.TakeCheckpoint(); cs.Groups == 0 {
		t.Fatalf("post-recovery checkpoint: %+v", cs)
	}
}
