package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/statestore"
)

// tallyTopology counts tuples per key group in running (never-cleared)
// state.
func tallyTopology(perPeriod, kgs int) *Topology {
	tp := NewTopology()
	tp.AddSource("src", func(period int, emit Emit) {
		for i := 0; i < perPeriod; i++ {
			emit(&Tuple{Key: fmt.Sprintf("k%d", i%20), TS: int64(i)})
		}
	})
	tp.AddOperator(&Operator{
		Name:      "tally",
		KeyGroups: kgs,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			st.Add("total", 1)
		},
	})
	tp.Connect("src", "tally")
	return tp
}

func totalTallied(e *Engine) float64 {
	total := 0.0
	for i, n := range e.nodes {
		if e.removed[i] {
			continue
		}
		for _, st := range n.allStates() {
			total += st.Num("total")
		}
	}
	return total
}

// growingTopology accumulates per-period table cells: every period touches
// only fresh keys, so the state grows while the bulk of it stays unchanged
// — the regime where incremental checkpoints pay off.
func growingTopology(perPeriod, kgs int) *Topology {
	tp := NewTopology()
	tp.AddSource("src", func(period int, emit Emit) {
		for i := 0; i < perPeriod; i++ {
			emit(&Tuple{Key: fmt.Sprintf("k%d", i%20), TS: int64(period*1000 + i)})
		}
	})
	tp.AddOperator(&Operator{
		Name:      "grow",
		KeyGroups: kgs,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			st.Add("total", 1)
			st.Table("seen").Set(fmt.Sprintf("p%d-t%d", tu.TS/1000, tu.TS), 1)
		},
	})
	tp.Connect("src", "grow")
	return tp
}

func TestIncrementalCheckpointAndRoundTrip(t *testing.T) {
	e, err := New(growingTopology(100, 6), Config{Nodes: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for p := 0; p < 2; p++ {
		if _, err := e.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	cs := e.TakeCheckpoint()
	if cs.Period != 2 || cs.Groups == 0 || cs.NewBytes == 0 {
		t.Fatalf("first checkpoint: %+v", cs)
	}
	firstTotal := cs.TotalBytes

	// Another period mutates every group a little; the next checkpoint must
	// append only deltas — far less than a fresh full snapshot.
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	cs2 := e.TakeCheckpoint()
	if cs2.Period != 3 {
		t.Fatalf("second checkpoint period = %d", cs2.Period)
	}
	if cs2.NewBytes >= firstTotal {
		t.Fatalf("incremental checkpoint appended %d bytes, full snapshot was %d", cs2.NewBytes, firstTotal)
	}
	// An immediate re-checkpoint with unchanged states appends nothing.
	cs3 := e.TakeCheckpoint()
	if cs3.NewBytes != 0 {
		t.Fatalf("no-change checkpoint appended %d bytes", cs3.NewBytes)
	}

	// Durable round trip through the store encoding.
	enc := e.CheckpointStore().Encode(nil)
	got, err := statestore.Decode(enc, e.topo.NumGroups())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != e.CheckpointStore().Len() {
		t.Fatalf("round trip lost groups: %d vs %d", got.Len(), e.CheckpointStore().Len())
	}
	for _, gid := range e.CheckpointStore().Groups() {
		want, wver, _ := e.CheckpointStore().Materialize(gid)
		have, hver, ok := got.Materialize(gid)
		if !ok || wver != hver {
			t.Fatalf("group %d version mismatch after round trip (%d vs %d, ok=%v)", gid, wver, hver, ok)
		}
		if !statestore.Diff(want, have).Empty() {
			t.Fatalf("group %d state differs after round trip", gid)
		}
	}
	if _, err := statestore.Decode(enc[:len(enc)/2], e.topo.NumGroups()); err == nil {
		t.Fatal("truncated store must fail to decode")
	}

	// Restoring the decoded store keeps recovery working.
	e.RestoreCheckpointStore(got)
	if e.CheckpointStore() != got {
		t.Fatal("restore did not install the store")
	}
}

func TestFailureRecoveryRestoresCheckpointState(t *testing.T) {
	e, err := New(tallyTopology(100, 6), Config{Nodes: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Two periods, checkpoint (200 tuples tallied), one more period (300).
	for p := 0; p < 2; p++ {
		if _, err := e.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	e.TakeCheckpoint()
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	if got := totalTallied(e); got != 300 {
		t.Fatalf("pre-failure total = %v, want 300", got)
	}

	// Fail node 1: its groups' post-checkpoint progress is lost.
	if err := e.FailNode(1); err != nil {
		t.Fatal(err)
	}
	recovered, err := e.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if recovered == 0 {
		t.Fatal("no groups recovered")
	}
	// Total now = 300 minus the failed node's third period tuples, plus its
	// checkpoint values: between 200 and 300, and divisible by the
	// workload's determinism.
	afterRecovery := totalTallied(e)
	if afterRecovery <= 200 || afterRecovery >= 300 {
		t.Fatalf("post-recovery total = %v, want in (200, 300)", afterRecovery)
	}

	// The engine must keep running and keep counting on 2 nodes.
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	if got := totalTallied(e); got != afterRecovery+100 {
		t.Fatalf("post-recovery period total = %v, want %v", got, afterRecovery+100)
	}
	// No group may still reference the failed node.
	for gid, n := range e.Allocation() {
		if n == 1 {
			t.Fatalf("group %d still on failed node", gid)
		}
	}
}

func TestRecoverWithoutCheckpointRestoresEmpty(t *testing.T) {
	e, err := New(tallyTopology(60, 4), Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	if err := e.FailNode(1); err != nil {
		t.Fatal(err)
	}
	recovered, err := e.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if recovered == 0 {
		t.Fatal("no groups recovered")
	}
	// Never checkpointed: the lost groups come back empty, but the engine
	// keeps running and counting.
	before := totalTallied(e)
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	if got := totalTallied(e); got != before+60 {
		t.Fatalf("post-recovery period total = %v, want %v", got, before+60)
	}
}

func TestRecoverErrors(t *testing.T) {
	e, err := New(tallyTopology(10, 4), Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	e.TakeCheckpoint()
	if err := e.FailNode(5); err == nil {
		t.Fatal("invalid node must error")
	}
	if err := e.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if err := e.FailNode(0); err == nil {
		t.Fatal("double failure must error")
	}
	if _, err := e.Recover([]int{0}); err == nil {
		t.Fatal("recovering onto the failed node must error")
	}
	if _, err := e.Recover(nil); err != nil {
		t.Fatal(err)
	}
	// Failing everything leaves no recovery targets.
	if err := e.FailNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(nil); err == nil {
		t.Fatal("no survivors must error")
	}
}

// windowTopology keeps one table per key group that holds only the current
// period's cells: between two checkpoints the whole state is replaced.
func windowTopology(perPeriod, kgs int) *Topology {
	tp := NewTopology()
	tp.AddSource("src", func(period int, emit Emit) {
		for i := 0; i < perPeriod; i++ {
			emit(&Tuple{Key: fmt.Sprintf("k%d", i%20), TS: int64(period*1000 + i)})
		}
	})
	tp.AddOperator(&Operator{
		Name:      "window",
		KeyGroups: kgs,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			if p := float64(tu.TS / 1000); st.Num("period") != p {
				st.SetNum("period", p)
				st.ClearTable("win")
			}
			st.Table("win").Set(fmt.Sprintf("p%d-t%d", tu.TS/1000, tu.TS), 1)
		},
	})
	tp.Connect("src", "window")
	return tp
}

// TestCheckpointOfChurningStateWritesFreshBases: when every group's state is
// replaced between cadences the checkpoint writes each state once — NewBytes
// equals the live state, not the larger delta — keeps no chain, and the
// store's tips equal the live states.
func TestCheckpointOfChurningStateWritesFreshBases(t *testing.T) {
	e, err := New(windowTopology(400, 8), Config{Nodes: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for cadence := 0; cadence < 3; cadence++ {
		var ps *PeriodStats
		for p := 0; p < 2; p++ {
			if ps, err = e.RunPeriod(); err != nil {
				t.Fatal(err)
			}
		}
		live := 0
		for _, b := range ps.StateBytes {
			live += b
		}
		cs := e.TakeCheckpoint()
		if cs.NewBytes != live || cs.TotalBytes != live {
			t.Fatalf("cadence %d: checkpoint wrote %d bytes, store holds %d, live state is %d", cadence, cs.NewBytes, cs.TotalBytes, live)
		}
		store := e.CheckpointStore()
		for i, n := range e.nodes {
			if e.removed[i] {
				continue
			}
			for gid, st := range n.allStates() {
				tip, ver, ok := store.Materialize(gid)
				if !ok || ver != e.Period() || store.ChainLen(gid) != 0 {
					t.Fatalf("cadence %d group %d: ok=%v version=%d chain=%d", cadence, gid, ok, ver, store.ChainLen(gid))
				}
				if !statestore.Diff(tip, st).Empty() || !statestore.Diff(st, tip).Empty() {
					t.Fatalf("cadence %d group %d: store tip differs from the live state", cadence, gid)
				}
			}
		}
	}
}

// TestAbsorbRejectsCorruptCheckpointEntries: entries of a worker's reply
// that cannot be what a worker sent — undecodable payloads, a delta for a
// group the store does not track, a group named twice or unknown to the
// topology — are reported and skipped, whether the summary (admitCkptEntry)
// or the payload (checkCkptPayload) gives them away, and the sound entries
// beside them are still recorded.
func TestAbsorbRejectsCorruptCheckpointEntries(t *testing.T) {
	e, err := New(tallyTopology(100, 6), Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	e.TakeCheckpoint()
	tracked := e.CheckpointStore().Groups()[0]
	good := statestore.NewState()
	good.Add("total", 99)
	entries := []ckptEntryWire{
		{node: 0, gid: tracked, step: statestore.StepBase, payload: good.Encode(nil)},
		{node: 0, gid: tracked, step: statestore.StepBase, payload: good.Encode(nil)}, // named twice
		{node: 0, gid: 5, step: statestore.StepBase, payload: []byte{0xff, 0xff}},     // undecodable state
		{node: 0, gid: 4, step: statestore.StepDelta, payload: []byte{0x01}},          // undecodable delta
		{node: 0, gid: 6, step: statestore.StepBase, payload: good.Encode(nil)},       // not in the topology
	}
	var tally ckptTally
	var d statestore.Delta
	var errs []error
	var sound []ckptEntryWire
	for _, en := range entries {
		err := e.admitCkptEntry(en, &tally)
		if err == nil {
			err = checkCkptPayload(en, &d)
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		sound = append(sound, en)
	}
	e.recordCkptEntries(e.Period(), sound)
	err = errors.Join(errs...)
	if err == nil {
		t.Fatal("corrupt entries absorbed without an error")
	}
	for _, want := range []string{"duplicate checkpoint entry for group", "checkpoint state for group 5", "group 4", "unknown group 6"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if len(sound) != 1 || sound[0].gid != tracked {
		t.Fatalf("absorbed %v, want only group %d", sound, tracked)
	}
	if tip, _, _ := e.CheckpointStore().Materialize(tracked); tip.Num("total") != 99 {
		t.Fatalf("sound entry not absorbed: total = %v", tip.Num("total"))
	}
}
