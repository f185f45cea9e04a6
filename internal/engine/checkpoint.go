package engine

import (
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/statestore"
)

// This file implements checkpoint-based fault tolerance, the extension the
// paper delegates to its companion work ([26] Madsen et al., "Integrating
// fault-tolerance and elasticity in a distributed data stream processing
// system", SSDBM 2014): between periods every process checkpoints the key
// groups it hosts against the tips its shards hold, and the controller's
// incremental statestore.Store records what they wrote; when a worker fails,
// the lost groups are re-created on surviving nodes from the last checkpoint.
// The store is a log in the controller's memory: migration ships the bases it
// holds and Recover restores from it, and nothing here writes it anywhere else.
//
// A checkpoint is two steps, the same in every process. The cut runs at the
// barrier, shards quiescent: it decides each group's step and brings the tip
// up to the live state, which is all that needs the state to hold still, and
// it is all a checkpoint costs the period. The write encodes what the cut
// decided from the tips and deltas alone, so it runs beside the next period:
// the controller's on a goroutine of its own, a worker's too, which sends the
// payloads as the reply to the controller's rqCkptWrite once they are written.
// The controller checks what arrives off the barrier and records everything in
// the store when it joins the write (joinCheckpoint), which is where the
// store is read and nowhere else: TakeCheckpoint, Recover, CheckpointStore
// and Close. Nothing on the data path reads the store —
// a delta move hands over the source's tip (shard.onMigrateOut) — so nothing
// there waits for a write.
//
// The same checkpoint backs checkpoint-assisted migration: because it is the
// shared base, moving a checkpointed key group ships the checkpoint the
// source's tip holds and, as the synchronous part, only the delta the source
// cuts against it — fault tolerance and reconfiguration integrate through one
// mechanism instead of two disjoint subsystems. The shard that holds the tip
// decides alone which way a group travels; the controller keeps no record of
// where tips are.
//
// Recovery is at-most-once with respect to the tuples processed after the
// checkpoint (the sources here are synthetic and cannot be replayed); what
// the engine guarantees is that a failure never wedges the barrier protocol
// and that recovered groups resume from a consistent state.

// CheckpointStats describes one incremental checkpoint.
type CheckpointStats struct {
	// Period is the last completed period (the checkpoint's version).
	Period int
	// Groups is the number of key groups covered by the checkpoint.
	Groups int
	// NewBytes is the volume this checkpoint appended to the store: full
	// snapshots for first-time groups and for groups whose state churned past
	// its own size, deltas for the rest. This — not the total state size — is
	// the incremental cost of the checkpoint.
	NewBytes int
	// TotalBytes is the store's footprint after the checkpoint (bases plus
	// delta chains, bounded by compaction).
	TotalBytes int
}

// TakeCheckpoint incrementally checkpoints every key group's state into the
// engine's store: each process cuts the tips of the groups it hosts
// (cutCheckpoint — a full snapshot for a group without a tip, then nothing,
// the delta since the previous checkpoint, or a fresh base; statestore's
// Tip.Cut) and the store records the bytes their writes encode, each on its
// group's own chain — so what the store holds and reports depends neither on
// the layout nor on the schedule. It returns after the cut, every write
// running beside whatever comes next; the stats are exact all the same, since
// the cut knows every payload's length. The store has the
// bytes at the next join: this call's next, Recover, CheckpointStore or
// Close, whichever comes first. Must be called
// between periods (the engine is quiescent then; the completion events of
// RunPeriod establish the necessary happens-before edge, exactly as for
// statistics merging).
func (e *Engine) TakeCheckpoint() CheckpointStats {
	e.joinCheckpoint()
	if e.ckpt == nil {
		e.ckpt = statestore.New()
	}
	t := ckptTally{cs: CheckpointStats{Period: e.period}, fresh: e.freshScratch[:0]}
	peers := e.workerPeers()
	local, remote := e.ckptDirectives(peers)
	e.cutCheckpoint(e.period, local)
	kept := e.write.entries[:0]
	for _, en := range e.write.entries {
		if err := e.admitCkptEntry(en, &t); err != nil {
			e.ckptErrs = append(e.ckptErrs, err)
			continue
		}
		kept = append(kept, en)
	}
	e.write.entries = kept
	// Remote nodes: the cuts go to all peers concurrently, and each answers
	// with a summary of its cut. A worker that died mid-request is skipped;
	// its groups keep their previous checkpoint until FailNode/Recover handle
	// it. A reply that arrives but does not decode is not a dead peer: like a
	// corrupt entry it fails the next period (Engine.ckptErrs), instead of
	// silently leaving the store behind that worker's tips. Every worker that
	// cut is asked for its write's payloads, which arrive whenever they are
	// written.
	bodies, rerrs := e.rig.requestAll(peers, func(k int) reqFrame {
		return reqFrame{kind: rqCkpt, version: e.period, dirs: remote[k]}
	})
	for k, peer := range peers {
		if rerrs[k] != nil {
			continue
		}
		var summary ckptSummary
		derr := decode(bodies[k], &summary)
		codec.PutBuf(bodies[k])
		if derr != nil {
			e.ckptErrs = append(e.ckptErrs, fmt.Errorf("engine: checkpoint reply from peer %d: %w", peer, derr))
			summary = nil
		}
		rw := &remoteWrite{peer: peer, entries: summary, admitted: make([]bool, len(summary)), done: make(chan struct{})}
		for i, en := range summary {
			err := e.admitCkptEntry(en, &t)
			if err != nil {
				e.ckptErrs = append(e.ckptErrs, err)
			}
			rw.admitted[i] = err == nil
		}
		e.write.remote = append(e.write.remote, rw)
		go e.fetchCkptWrite(rw)
	}
	t.cs.Groups = e.ckpt.Len() + t.added
	t.cs.TotalBytes = e.ckpt.Bytes() + t.grow
	// Refresh the planner's residency signal: the groups just checkpointed
	// have, right now, an empty delta against their checkpoint — a plan
	// made at this boundary must price their moves accordingly rather than
	// against the previous (or missing) checkpoint.
	e.setCkptDelta(emptyDeltaBytes, t.fresh...)
	e.freshScratch = t.fresh[:0]
	// The controller's own write starts last: begun before the round trip, it
	// would compete for CPUs with the workers' cuts the round trip waits on
	// wherever they share a host.
	w, done := &e.write, make(chan struct{})
	w.done = done
	go func() {
		w.run()
		close(done)
	}()
	return t.cs
}

// ckptDirectives says, per tracked group, what the store makes of its next
// checkpoint (ckptDirective), split by where the group lives: local for this
// process's nodes, remote[k] for peers[k]'s. Both lists ascend by gid.
func (e *Engine) ckptDirectives(peers []int) (local []ckptDirective, remote [][]ckptDirective) {
	remote = make([][]ckptDirective, len(peers))
	for _, gid := range e.ckpt.Groups() {
		d := ckptDirective{gid: gid, bound: e.ckpt.FoldBound(gid)}
		p := e.peerFor(e.baseAlloc[gid])
		if p == e.self {
			local = append(local, d)
			continue
		}
		if k, ok := slices.BinarySearch(peers, p); ok {
			remote[k] = append(remote[k], d)
		}
	}
	return local, remote
}

// ckptTally is what a checkpoint's entries add up to as TakeCheckpoint admits
// them: the stats, the store's growth once the write is joined (grow bytes,
// added groups), the groups checkpointed (fresh) and, dense per gid, which of
// them an entry named already (seen).
type ckptTally struct {
	cs          CheckpointStats
	grow, added int
	fresh       []int
	seen        []bool
}

// admitCkptEntry checks one entry of a cut — a worker's crossed a wire: a
// known group, named once, that the store can take the step for — and tallies
// it: NewBytes counts the cut's size, the store's growth what recording the
// payload will add.
func (e *Engine) admitCkptEntry(en ckptEntryWire, t *ckptTally) error {
	if t.seen == nil {
		t.seen = make([]bool, e.topo.NumGroups())
	}
	tracked := en.gid < len(t.seen) && e.ckpt.Has(en.gid)
	switch {
	case en.gid >= len(t.seen):
		return fmt.Errorf("engine: checkpoint entry for unknown group %d", en.gid)
	case t.seen[en.gid]:
		return fmt.Errorf("engine: duplicate checkpoint entry for group %d", en.gid)
	case !tracked && en.step != statestore.StepBase:
		return fmt.Errorf("engine: checkpoint step %d for group %d, which the store does not track", en.step, en.gid)
	}
	t.seen[en.gid] = true
	t.cs.NewBytes += en.cut
	switch en.step {
	case statestore.StepBase:
		t.grow += en.size - e.ckpt.Footprint(en.gid)
		if !tracked {
			t.added++
		}
	case statestore.StepDelta:
		t.grow += en.size
	}
	t.fresh = append(t.fresh, en.gid)
	return nil
}

// emptyDeltaBytes is the encoded size of a delta that changes nothing.
var emptyDeltaBytes = (&statestore.Delta{}).Size()

// setCkptDelta overwrites the residency signal of gids between two barriers
// (size -1: no checkpoint to cut a delta against).
func (e *Engine) setCkptDelta(size int, gids ...int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ckptDeltas == nil {
		e.ckptDeltas = make([]int, e.topo.NumGroups())
		for g := range e.ckptDeltas {
			e.ckptDeltas[g] = -1
		}
	}
	for _, gid := range gids {
		e.ckptDeltas[gid] = size
	}
}

// joinCheckpoint waits for the last checkpoint's write, if one is pending. On
// the controller it then records the entries — its own and every worker's
// whose payloads arrived and checked out — in the store; TakeCheckpoint
// dropped every entry the store would refuse, and what went wrong since
// fails the next period. A worker's write that was
// never asked for is abandoned.
func (e *Engine) joinCheckpoint() {
	w := &e.write
	if w.done == nil {
		return
	}
	if e.self != 0 {
		close(w.quit)
		<-w.done
		w.done, w.ask = nil, nil
		return
	}
	<-w.done
	w.done = nil
	e.recordCkptEntries(w.version, w.entries)
	clear(w.entries)
	for _, rw := range w.remote {
		<-rw.done
		if rw.err != nil {
			e.ckptErrs = append(e.ckptErrs, rw.err)
		}
		e.recordCkptEntries(w.version, rw.entries)
	}
	clear(w.remote)
	w.remote = w.remote[:0]
}

// recordCkptEntries appends checked entries of the checkpoint at version to
// the store, as they are.
func (e *Engine) recordCkptEntries(version int, entries []ckptEntryWire) {
	for _, en := range entries {
		e.ckpt.Record(en.gid, version, en.step, en.payload, nil) //nolint:errcheck // admitted at the cut
	}
}

// CheckpointStore exposes the engine's checkpoint store (nil until the
// first TakeCheckpoint), to read, with the last checkpoint in it: a write
// still running is joined first, so a store held across a later
// TakeCheckpoint shows that checkpoint only once this is called again. Like
// TakeCheckpoint, it must only be used between periods.
func (e *Engine) CheckpointStore() *statestore.Store {
	e.joinCheckpoint()
	return e.ckpt
}

// FailNode simulates a worker crash between periods: the goroutine stops
// and every state it held is lost. The node's key groups must be recovered
// (Recover) or reassigned before the next period.
func (e *Engine) FailNode(id int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.failLocal(id); err != nil {
		return err
	}
	e.askHost(id, rqFail)
	return nil
}

// Recover repairs the allocation after node failures using the engine's
// checkpoint store. Two cases per key group:
//
//   - its migration target died but its physical host survives (a plan was
//     staged and its destination crashed before the move's period): the
//     staged move is cancelled — the live, newer state stays where it is;
//   - its physical host died: the group is re-created on a surviving node
//     (least-loaded round-robin over `onto`, or all alive nodes that are not
//     draining when onto is nil) from its last checkpoint, or empty if it
//     was never checkpointed.
//
// A node marked for removal never gains a group: the default set skips it,
// and an onto that names it is refused.
//
// Every restored group is installed by its new shard (recoverMsg), wherever
// it runs; Recover returns once this process's shards have installed theirs,
// and a worker installs its own before anything it is asked next.
//
// Returns the number of groups restored from checkpoint (or empty).
func (e *Engine) Recover(onto []int) (int, error) {
	e.joinCheckpoint()
	if onto == nil {
		for i := range e.nodes {
			if !e.removed[i] && !e.killed[i] {
				onto = append(onto, i)
			}
		}
	}
	if len(onto) == 0 {
		return 0, fmt.Errorf("engine: no surviving nodes to recover onto")
	}
	for _, n := range onto {
		if n < 0 || n >= len(e.nodes) || e.removed[n] {
			return 0, fmt.Errorf("engine: recovery target %d not alive", n)
		}
		if e.killed[n] {
			return 0, fmt.Errorf("engine: recovery target %d is draining", n)
		}
	}
	// Cancel staged moves whose destination died while the source survives.
	for gid, target := range e.groupNode {
		phys := e.baseAlloc[gid]
		if target != phys && e.removed[target] && !e.removed[phys] {
			e.groupNode[gid] = phys
		}
	}
	// Restore groups whose physical host died.
	recovered := 0
	next := 0
	for gid, phys := range e.baseAlloc {
		if !e.removed[phys] {
			continue
		}
		dest := onto[next%len(onto)]
		next++
		var enc []byte
		tipVer := -1
		if e.ckpt != nil {
			if b, ver, ok := e.ckpt.EncodedState(gid); ok {
				enc, tipVer = b, ver
			}
		}
		op, kg := e.topo.OpOf(gid)
		e.deliver(e.gsidFor(dest, gid), recoverMsg{op: op, kg: kg, encoded: enc, tipVer: tipVer})
		// The restored state is the checkpoint tip (when one existed) and it
		// now lives on dest: its delta against the tip is empty, whatever the
		// last barrier read where the group lived then. The tip is a new one,
		// so no cut takes that reading either (statestore.Tip.Measure).
		delta := -1
		if tipVer >= 0 {
			delta = emptyDeltaBytes
		}
		e.setCkptDelta(delta, gid)
		e.groupNode[gid] = dest
		e.baseAlloc[gid] = dest
		recovered++
	}
	e.pingLocalShards()
	return recovered, nil
}
