package distrib

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The equivalence harness: one scripted adaptive run — periods, staged moves
// that ship whole, a staged checkpoint-assisted migration that ships its base
// with its delta, weighted scale-out, checkpoints — executed over (a) the
// zero-worker layout (engine.New), (b) an in-memory transport cluster, (c) the
// same cluster with one node hosted by the controller itself and (d) a real
// TCP-loopback cluster. All four must produce bit-identical per-period
// statistics: the layout is an implementation detail, not a semantic change.

// periodSummary is the comparable digest of one period's statistics. Every
// field is copied out of the PeriodStats so summaries from different engines
// never alias.
type periodSummary struct {
	Period             int
	GroupUnits         []float64
	GroupNode          []int
	StateBytes         []int
	Comm               map[[2]int]float64
	NodeUnits          []float64
	TuplesIn           int64
	TuplesOut          int64
	BytesCrossNode     int64
	SrcBytesCrossNode  int64
	BytesCrossNodeIn   int64
	BatchesCrossNode   int64
	Migrations         int
	MigrationLatency   float64
	MigratedDeltaBytes int64
	PrecopyBytes       int64
	DeferredMoves      int
	CkptDeltaBytes     []int
}

// commEdges copies a communication matrix out as a map, nil for none.
func commEdges(c *core.CommCSR) map[[2]int]float64 {
	if c == nil {
		return nil
	}
	m := map[[2]int]float64{}
	c.ForEach(func(from, to int, rate float64) { m[[2]int{from, to}] = rate })
	return m
}

func summarize(ps *engine.PeriodStats) periodSummary {
	s := periodSummary{
		Period:             ps.Period,
		GroupUnits:         append([]float64(nil), ps.GroupUnits...),
		GroupNode:          append([]int(nil), ps.GroupNode...),
		StateBytes:         append([]int(nil), ps.StateBytes...),
		NodeUnits:          append([]float64(nil), ps.NodeUnits...),
		TuplesIn:           ps.TuplesIn,
		TuplesOut:          ps.TuplesOut,
		BytesCrossNode:     ps.BytesCrossNode,
		SrcBytesCrossNode:  ps.SrcBytesCrossNode,
		BytesCrossNodeIn:   ps.BytesCrossNodeIn,
		BatchesCrossNode:   ps.BatchesCrossNode,
		Migrations:         ps.Migrations,
		MigrationLatency:   ps.MigrationLatency,
		MigratedDeltaBytes: ps.MigratedDeltaBytes,
		PrecopyBytes:       ps.PrecopyBytes,
		DeferredMoves:      ps.DeferredMoves,
		CkptDeltaBytes:     append([]int(nil), ps.CkptDeltaBytes...),
		Comm:               commEdges(ps.Comm),
	}
	return s
}

// equivSpec is the shared job: small enough to run three times in a unit
// test, rich enough to exercise every reconfiguration path.
func equivSpec() JobSpec {
	return JobSpec{
		Job:       "rj2",
		Workload:  workload.JobConfig{KeyGroups: 12, Rate: 400, Seed: 7},
		Engine:    engine.Config{Nodes: 3},
		NodePeers: DefaultPeers(3, 2),
	}
}

// driveAdaptiveScript runs the deterministic adaptation script against any
// engine and returns the per-period digests plus the checkpoint statistics.
// The script is a function of period numbers and the (deterministic)
// observed allocation only, so every engine executes the exact same
// reconfigurations.
func driveAdaptiveScript(t *testing.T, e *engine.Engine) ([]periodSummary, []engine.CheckpointStats) {
	t.Helper()
	var periods []periodSummary
	var ckpts []engine.CheckpointStats

	run := func() {
		t.Helper()
		ps, err := e.RunPeriod()
		if err != nil {
			t.Fatalf("period %d: %v", len(periods)+1, err)
		}
		if got, want := ps.BytesCrossNodeIn, ps.BytesCrossNode+ps.SrcBytesCrossNode; got != want {
			t.Fatalf("period %d: BytesCrossNodeIn = %d, want BytesCrossNode+SrcBytesCrossNode = %d", ps.Period, got, want)
		}
		periods = append(periods, summarize(ps))
	}

	run() // 1
	// Staged whole moves: no group has a checkpoint tip yet, so two groups
	// rotated one node forward ship their state whole. Disjoint from the
	// delta moves below. The gids land in sumdelay (rj2's stateful operator:
	// extract holds gids 0..11, sumdelay 12..23) so the moves carry real
	// state.
	alloc := append([]int(nil), e.Allocation()...)
	for _, g := range []int{14, 17} {
		alloc[g] = (alloc[g] + 1) % 3
	}
	if err := e.ApplyPlan(alloc); err != nil {
		t.Fatalf("plan 0: %v", err)
	}
	run() // 2: the staged moves ship whole
	ckpts = append(ckpts, e.TakeCheckpoint())

	// Staged checkpoint-assisted migration: two sumdelay groups move at the
	// next boundary, each shipping its ~1 kB checkpoint as the base of its
	// delta.
	alloc = append([]int(nil), e.Allocation()...)
	alloc[12] = (alloc[12] + 1) % 3
	alloc[13] = (alloc[13] + 2) % 3
	if err := e.ApplyPlan(alloc); err != nil {
		t.Fatalf("plan 1: %v", err)
	}
	run() // 3: the staged moves execute with delta transfers
	run() // 4
	run() // 5
	ckpts = append(ckpts, e.TakeCheckpoint())

	// Scale-out, then drain two groups onto the new node.
	ids, err := e.AddNodes(1)
	if err != nil {
		t.Fatalf("scale-out: %v", err)
	}
	if len(ids) != 1 {
		t.Fatalf("scale-out ids = %v", ids)
	}
	alloc = append([]int(nil), e.Allocation()...)
	alloc[18], alloc[19] = ids[0], ids[0]
	if err := e.ApplyPlan(alloc); err != nil {
		t.Fatalf("plan 2: %v", err)
	}
	run() // 6
	run() // 7
	ckpts = append(ckpts, e.TakeCheckpoint())
	return periods, ckpts
}

func runClassic(t *testing.T, spec JobSpec) ([]periodSummary, []engine.CheckpointStats) {
	t.Helper()
	topo, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(topo, spec.Engine, spec.Initial)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	return driveAdaptiveScript(t, e)
}

func runMem(t *testing.T, spec JobSpec, wrap func(peer int, ep transport.Endpoint) transport.Endpoint) ([]periodSummary, []engine.CheckpointStats) {
	t.Helper()
	e, stop, err := startMem(spec, 2, wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	return driveAdaptiveScript(t, e)
}

func runTCP(t *testing.T, spec JobSpec) ([]periodSummary, []engine.CheckpointStats) {
	t.Helper()
	host, err := transport.ListenCluster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if werr := RunWorker(host.Addr(), "127.0.0.1:0", 1); werr != nil {
				t.Errorf("worker: %v", werr)
			}
		}()
	}
	e, err := StartHost(host, 2, spec)
	if err != nil {
		t.Fatal(err)
	}
	periods, ckpts := driveAdaptiveScript(t, e)
	e.Close()
	wg.Wait() // workers exit on the controller's bye
	return periods, ckpts
}

func comparePeriods(t *testing.T, name string, got, want []periodSummary) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d periods, classic has %d", name, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s period %d diverges:\n  got  %+v\n  want %+v", name, want[i].Period, got[i], want[i])
		}
	}
}

// TestDistributedEquivalence is the acceptance test of every layout: the same
// seeded adaptive run over the zero-worker engine, the in-memory cluster, a
// mixed layout and a real TCP-loopback cluster yields identical per-period
// statistics — including the exact wire-byte accounting invariant — and
// identical checkpoints.
func TestDistributedEquivalence(t *testing.T) {
	spec := equivSpec()
	classic, classicCkpts := runClassic(t, spec)

	// Sanity: the script actually exercised every path it claims to. A
	// period whose moves shipped no checkpoint base moved every group whole.
	var migr, whole int
	var precopy, delta int64
	for _, p := range classic {
		migr += p.Migrations
		if p.PrecopyBytes == 0 {
			whole += p.Migrations
		}
		precopy += p.PrecopyBytes
		delta += p.MigratedDeltaBytes
	}
	if migr == 0 || whole == 0 || precopy == 0 || delta == 0 {
		t.Fatalf("script did not exercise all paths: migrations=%d whole=%d precopyB=%d deltaB=%d",
			migr, whole, precopy, delta)
	}

	mem, memCkpts := runMem(t, spec, nil)
	comparePeriods(t, "mem", mem, classic)
	if !reflect.DeepEqual(memCkpts, classicCkpts) {
		t.Errorf("mem checkpoints diverge: got %+v want %+v", memCkpts, classicCkpts)
	}

	// A mixed layout: the controller hosts node 0 beside two workers, so the
	// script's staged whole and delta moves, checkpoints and scale-out each
	// cross a hosted↔remote boundary inside one engine — mailbox puts and
	// frames, tips on the controller's shards and on the workers' side by side.
	mixedSpec := spec
	mixedSpec.NodePeers = []int{0, 1, 2}
	mixed, mixedCkpts := runMem(t, mixedSpec, nil)
	comparePeriods(t, "mixed", mixed, classic)
	if !reflect.DeepEqual(mixedCkpts, classicCkpts) {
		t.Errorf("mixed checkpoints diverge: got %+v want %+v", mixedCkpts, classicCkpts)
	}

	tcp, tcpCkpts := runTCP(t, spec)
	comparePeriods(t, "tcp", tcp, classic)
	if !reflect.DeepEqual(tcpCkpts, classicCkpts) {
		t.Errorf("tcp checkpoints diverge: got %+v want %+v", tcpCkpts, classicCkpts)
	}
}
