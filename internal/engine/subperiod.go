// Reactive sub-period reconfiguration. The paper's controller reacts once
// per statistics period; transient skew that appears early in a period goes
// unanswered until the next barrier. When Config.SubPeriods = K >= 2, the
// engine splits each period's source generation into K sub-intervals
// (measured in tuples, calibrated from the previous period's volume) and
// exposes two extra surfaces:
//
//   - SubSnapshot(): a mid-period statistics snapshot built from
//     incrementally maintained atomic per-group / per-node counters,
//     callable from any goroutine at any time, and
//   - a sub-period observer (SetSubObserver) invoked at every sub-interval
//     boundary on the generation goroutine; the moves it returns are
//     applied immediately as "hot moves" — restricted migrations that
//     execute in the middle of the running period without waiting for the
//     period barrier.
//
// Hot moves are restricted so the period/barrier protocol stays intact:
// the destination must already host the group's operator this period (host
// sets, and therefore barrier routing, never change mid-period), the group
// must not be part of a staged period-boundary migration, and a group moves
// at most once per period. Within those limits the full direct-state-
// migration machinery is reused: the old host ships the state and forwards
// late tuples, the new host buffers tuples for the group until the state
// lands, and an extra barrier from the old to the new host delays the new
// host's flush until every forwarded tuple has arrived.
package engine

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
)

// SubObserver is the sub-period boundary hook: it receives a mid-period
// snapshot (SubSnapshot), the 1-based period and the 1-based sub-interval
// index just completed, and returns the hot moves to apply now (nil for
// none). It runs on a source-generation goroutine between tuples — with
// parallel generation (Config.GenWorkers > 1) on the boundary-initiating
// generator while every other generator is parked at a safe point — so keep
// it cheap, it stalls input generation while it runs.
type SubObserver func(snap *core.Snapshot, period, sub int) []core.Move

// SetSubObserver installs the sub-period boundary hook. It takes effect at
// the next period boundary. The engine must have been built with
// Config.SubPeriods >= 2, otherwise no boundaries ever fire.
func (e *Engine) SetSubObserver(fn SubObserver) {
	e.mu.Lock()
	e.subObserver = fn
	e.mu.Unlock()
}

// SubSnapshot builds a statistics snapshot from the live mid-period
// counters: per-group loads accumulated so far this period (atomic reads),
// the current effective allocation (including hot moves already applied)
// and the previous period's state sizes. It is safe to call from any
// goroutine while a period is in flight. The snapshot carries no
// communication matrix (Out is nil) — the reactive planners only need
// loads. Loads are partial-period measurements: absolute percentages are
// lower than a full period's, but the ratios the trigger policy and the
// hot mover consume are unaffected.
func (e *Engine) SubSnapshot() (*core.Snapshot, error) {
	if e.cfg.SubPeriods < 2 {
		return nil, fmt.Errorf("engine: sub-period statistics disabled (Config.SubPeriods < 2)")
	}
	// The period-so-far total per group: the hosted shards' counters, read
	// under the lock that orders this against node-table changes, plus the
	// worker peers' sparse mid-period readings.
	milli := make([]int64, e.topo.NumGroups())
	e.mu.Lock()
	groupNode := append([]int(nil), e.groupNode...)
	kill := make([]bool, len(e.nodes))
	hetero := false
	for i := range e.nodes {
		kill[i] = e.killed[i] || e.removed[i]
		if e.weights[i] != 1 {
			hetero = true
		}
	}
	var capw []float64
	if hetero {
		capw = append([]float64(nil), e.weights...)
	}
	var stateBytes []int
	if e.last != nil {
		stateBytes = e.last.StateBytes
	}
	capacity := e.capacity
	numNodes := len(e.nodes)
	e.localSubMilli(milli)
	peers := e.workerPeers()
	e.mu.Unlock()

	s := &core.Snapshot{
		NumNodes: numNodes,
		Kill:     kill,
		Capacity: capw,
		Groups:   make([]core.GroupStat, e.topo.NumGroups()),
		Ops:      e.opStats(),
	}
	for _, peer := range peers {
		body, err := e.rig.request(peer, reqFrame{kind: rqSub})
		if err != nil {
			continue // a dead worker contributes nothing mid-period
		}
		vals, derr := decodeSubReply(body, len(milli))
		codec.PutBuf(body)
		if derr != nil {
			continue
		}
		for gid, m := range vals {
			milli[gid] += m
		}
	}
	for gid := range s.Groups {
		op, _ := e.topo.OpOf(gid)
		st := 0.0
		if stateBytes != nil {
			st = float64(stateBytes[gid])
		}
		s.Groups[gid] = core.GroupStat{
			Op:        op,
			Node:      groupNode[gid],
			Load:      100 * float64(milli[gid]) / 1000 / capacity,
			StateSize: st,
		}
	}
	return s, nil
}

// opStats builds the per-operator metadata shared by Snapshot and
// SubSnapshot.
func (e *Engine) opStats() []core.OpStat {
	ops := make([]core.OpStat, len(e.topo.ops))
	for op := range e.topo.ops {
		ops[op].Name = e.topo.ops[op].Name
		ops[op].Downstream = e.topo.Downstream(op)
		for kg := 0; kg < e.topo.ops[op].KeyGroups; kg++ {
			ops[op].Groups = append(ops[op].Groups, e.topo.GID(op, kg))
		}
	}
	return ops
}

// subBoundary runs one sub-interval boundary on the (sole active) generation
// goroutine: let the data path catch up to this boundary's share of the
// period, build the sub-snapshot, consult the observer, apply the returned
// moves. With parallel generation the caller is the boundary initiator and
// every other generator is parked (see genCoord), so single-generator
// reasoning applies throughout. flushSrc ships every staged source outbox —
// of every generator — first, so tuples the engine routed under the old
// allocation are ordered before the move broadcast.
func (e *Engine) subBoundary(pr *periodRun, flushSrc func()) {
	if pr.subObserver == nil {
		return
	}
	flushSrc()
	// Generation is not rate-limited in this engine: sources can emit a
	// whole period's batch long before the workers processed it, which
	// would make mid-period counters meaningless at emission-time
	// boundaries. Wait until the cluster has burned roughly subIdx/K of
	// the previous period's total cost units — the processing-progress
	// definition of "sub-period" — with stall detection so a genuine
	// volume drop cannot hang the period.
	if total := e.lastTotalMilli; total > 0 {
		target := total * int64(pr.subIdx) / int64(e.cfg.SubPeriods)
		e.quiesceToward(target)
	}
	snap, err := e.SubSnapshot()
	if err != nil {
		return
	}
	moves := pr.subObserver(snap, pr.period, pr.subIdx)
	if len(moves) == 0 {
		return
	}
	e.applyHotMoves(pr, moves, flushSrc)
}

// quiesceToward blocks until the cluster's burned cost units this period
// reach target milli-units, or until progress stalls (everything deliverable
// has been processed — e.g. the input rate dropped, or tuples sit in
// senders' outboxes below the flush threshold). Runs on the boundary's sole
// active generation goroutine only.
func (e *Engine) quiesceToward(target int64) {
	prev, stalls := int64(-1), 0
	for {
		cur := e.localProgressMilli()
		for _, peer := range e.workerPeers() {
			body, err := e.rig.request(peer, reqFrame{kind: rqProgress})
			if err != nil {
				continue // dead worker: counts as no progress; stalls exit
			}
			m, derr := decodeProgressReply(body)
			codec.PutBuf(body)
			if derr == nil {
				cur += m
			}
		}
		if cur >= target {
			return
		}
		if cur == prev {
			stalls++
			if stalls >= 40 {
				return
			}
			time.Sleep(100 * time.Microsecond)
		} else {
			stalls = 0
			runtime.Gosched()
		}
		prev = cur
	}
}

// applyHotMoves validates and executes a batch of hot moves mid-period.
// Invalid or unsafe moves are silently skipped (the decision was made on a
// snapshot that may have gone stale): a move must target an alive,
// non-draining node that already hosts the group's operator this period,
// must name the group's current physical host as From, and the group must
// be untouched by this period's staged migrations and earlier hot moves.
// Returns the number of moves executed.
func (e *Engine) applyHotMoves(pr *periodRun, moves []core.Move, flushSrc func()) int {
	e.mu.Lock()
	var batch []hotMove
	for _, mv := range moves {
		gid := mv.Group
		if gid < 0 || gid >= len(pr.alloc) {
			continue
		}
		from, to := pr.alloc[gid], mv.To
		if to == from || to < 0 || to >= len(e.nodes) || mv.From != from {
			continue
		}
		if e.removed[to] || e.killed[to] {
			continue
		}
		if pr.stagedGids[gid] || pr.hotMoved[gid] {
			continue
		}
		op, kg := e.topo.OpOf(gid)
		hostsOp := false
		for _, h := range pr.rt.hosts[op] {
			if h == to {
				hostsOp = true
				break
			}
		}
		if !hostsOp {
			continue
		}
		dup := false
		for _, hm := range batch {
			if hm.gid == gid {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		batch = append(batch, hotMove{gid: gid, op: op, kg: kg, from: from, to: to})
	}
	if len(batch) == 0 {
		e.mu.Unlock()
		return 0
	}

	// Ship everything the sources staged under the old routing first, so
	// the engine's own sends stay FIFO with respect to the broadcast.
	flushSrc()

	// Broadcast: destination shards strictly first. A destination's mailbox
	// then holds the hotMoveMsg before the state message from the old host
	// and before any tuple a sender re-routes after processing its own copy —
	// both are enqueued by goroutines that act only after this loop ran.
	// Every shard of every alive node gets the message (each keeps its own
	// router overrides and may route toward the moved group), but only the
	// owning shards of the from/to nodes participate in the state handoff.
	//
	// Distributed, "strictly first" needs an explicit edge: a remote
	// destination's frame is sent with an ack request, and the second-phase
	// broadcast waits for every ack — the worker's dispatch loop acks after
	// enqueuing, and the destination's per-link FIFO then orders the
	// hotMoveMsg ahead of anything the from-side ships once phase two runs.
	msg := hotMoveMsg{period: pr.period, moves: batch}
	sent := make([]bool, len(e.nodes)*e.spn)
	awaiting := 0
	for _, hm := range batch {
		g := e.gsidFor(hm.to, hm.gid)
		if sent[g] {
			continue
		}
		sent[g] = true
		if e.hostsNode(hm.to) {
			e.shardAt(g).mb.put(msg)
			continue
		}
		if err := e.rig.ep.Send(e.peerFor(hm.to), encodeHotMoveFrame(g, msg, true)); err == nil {
			awaiting++
		}
	}
	for awaiting > 0 {
		select {
		case ack := <-e.rig.hotAcks:
			if ack.period == pr.period {
				awaiting--
			}
		case <-e.rig.deadSignal():
			// A worker died mid-broadcast; the period is doomed (finishPeriod
			// aborts on the same signal). Do not wedge the generator here.
			awaiting = 0
		}
	}
	for g := range sent {
		if !sent[g] && !e.removed[g/e.spn] {
			e.deliver(g, msg)
		}
	}
	for _, hm := range batch {
		e.groupNode[hm.gid] = hm.to // target tracks the new physical home
		pr.alloc[hm.gid] = hm.to    // so baseAlloc reflects it at period end
		if pr.hotDest == nil {
			pr.hotDest = map[int]int{}
		}
		pr.hotDest[hm.gid] = hm.to
		pr.hotMoved[hm.gid] = true
	}
	e.mu.Unlock()
	pr.hotMoves += len(batch)
	return len(batch)
}
