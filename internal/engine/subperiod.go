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
//     applied immediately as "hot moves" — migrations that execute in the
//     middle of the running period without waiting for the period barrier.
//
// A hot move is a staged move at a segment boundary: there is one migration
// protocol (Engine.arm), and a period is one or more segments of it. The
// boundary's generator — every other one is parked — flushes the source
// outboxes and sends a barrier wave that is not final: shards propagate it and
// report completion exactly as at period end, but flush no operator. When the
// control goroutine has counted the wave's completions the pipeline is
// drained, so it applies the moves to the allocation and arms the next segment
// the way beginPeriod arms a period (new router table, barrier counts, the
// destinations' awaitIn, acknowledged by every shard; statistics keep
// accumulating), asks the old hosts to ship and releases the generators. No
// tuple is ever in flight across a move, so no tuple is forwarded and a key's
// tuples reach its operator in the order they were sent, moved or not. The
// price is one pipeline drain per boundary that moves something, at a point
// where generation is parked and quiesceToward has already waited for
// processing to catch up.
//
// Hot moves are restricted: the destination must already host the group's
// operator this period, the group must not be part of a staged
// period-boundary migration, and a group moves at most once per period. They
// always ship full state.
package engine

import (
	"fmt"
	"runtime"
	"slices"
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
	bodies, errs := e.rig.requestAll(peers, reqFrame{kind: rqSub})
	for k, body := range bodies {
		if errs[k] != nil {
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
// of every generator — first, so everything the sources routed so far can be
// processed before the counters are read.
func (e *Engine) subBoundary(pr *periodRun, flushSrc func()) {
	if pr.subObserver == nil || pr.over() {
		return // a period that has failed opens no further boundary
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
	e.applyHotMoves(pr, moves)
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
		bodies, errs := e.rig.requestAll(e.workerPeers(), reqFrame{kind: rqProgress})
		for k, body := range bodies {
			if errs[k] != nil {
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

// applyHotMoves validates a batch of hot moves and executes it at a segment
// boundary. Invalid or unsafe moves are silently skipped (the decision was
// made on a snapshot that may have gone stale): a move must target an alive,
// non-draining node that already hosts the group's operator this period,
// must name the group's current physical host as From, and the group must
// be untouched by this period's staged migrations and earlier hot moves.
// What is left closes the segment: behind the source outboxes subBoundary
// flushed, a non-final barrier wave goes out, the control goroutine takes the
// moves (finishPeriod, openSegment) and this generator waits until the next
// segment is armed.
func (e *Engine) applyHotMoves(pr *periodRun, moves []core.Move) {
	e.mu.Lock()
	var batch []core.Move
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
		op, _ := e.topo.OpOf(gid)
		if !slices.Contains(pr.rt.hosts[op], to) {
			continue
		}
		if slices.ContainsFunc(batch, func(b core.Move) bool { return b.Group == gid }) {
			continue
		}
		batch = append(batch, core.Move{Group: gid, From: from, To: to})
	}
	e.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	e.emitSourceBarriers(pr, false)
	// done means the period failed while the boundary was open: the error is
	// finishPeriod's to return, and nobody reads segment or answers on resume
	// any more.
	select {
	case pr.segment <- batch:
	case <-pr.done:
		return
	}
	select {
	case <-pr.resume:
	case <-pr.done:
	}
}
