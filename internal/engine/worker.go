package engine

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/statestore"
	"repro/internal/transport"
)

// Worker-side distributed execution: a worker process runs an Engine whose
// node table holds live nodes only for the slots this process owns (the rest
// are nil) and no control loop of its own. ServeWorker drains the transport
// endpoint: data-plane frames become mailbox messages for local shards,
// frArm arms the local shards for a period, and frReq serves the
// controller's stats/checkpoint/progress/provision/terminate/fail requests.
// Shards report their events (acks, completions, migrations, errors) back to
// the controller through Engine.emit, which encodes them as frEvent frames —
// shard code is identical to the single-process engine.

// ckptTip is a worker shard's retained checkpoint tip for one key group: the
// exact encoded state that the controller's store holds as the group's tip
// (set when a checkpoint request encodes it, when a delta migration adopts a
// pre-copied base, or when a recovery installs a checkpointed state). The
// next checkpoint request for the group ships only the delta against it —
// the same full-vs-incremental split statestore.Store performs in process.
type ckptTip struct {
	ver  int
	data []byte
	// st caches the decoded form of the tip, built lazily by the first delta
	// operation that needs it and then advanced in place by later checkpoint
	// deltas — repeated delta checkpoints and migrations decode the tip at
	// most once instead of once per use. When st is current, data may be nil
	// (the encoding is only re-derivable, never shipped).
	st *State
}

// pingMsg flushes a shard's mailbox: the shard replies on ch once every
// message enqueued before the ping has been processed. The worker dispatch
// loop pings all local shards before reading their states or statistics,
// which also establishes the happens-before edge the race detector needs.
type pingMsg struct{ ch chan struct{} }

func (pingMsg) isMessage() {}

// recoverMsg installs a recovered state on a worker shard (controller-side
// Engine.Recover targeting a remote node). tipVer >= 0 marks encoded as the
// checkpoint tip at that version (the state came from the store's tip, so
// the shard may retain it for incremental checkpoints).
type recoverMsg struct {
	op, kg  int
	encoded []byte
	tipVer  int
}

func (recoverMsg) isMessage() {}

// ServeWorker runs the worker dispatch loop until the controller says bye,
// the controller link drops, or the endpoint closes. It must only be called
// on an engine built by NewWorker.
func (e *Engine) ServeWorker() error {
	r := e.rig
	for {
		select {
		case fr, ok := <-r.ep.Recv():
			if !ok {
				e.shutdownWorker()
				return nil
			}
			if bye := e.dispatchWorker(fr); bye {
				e.shutdownWorker()
				return nil
			}
		case p := <-r.ep.Down():
			r.markDead(p)
			if p == 0 {
				e.shutdownWorker()
				return fmt.Errorf("engine: controller link lost")
			}
		}
	}
}

func (e *Engine) shutdownWorker() {
	for i, n := range e.nodes {
		if n != nil && !e.removed[i] {
			n.closeMailboxes()
		}
	}
	_ = e.rig.ep.Close()
}

// dispatchWorker handles one inbound frame; true means the controller asked
// this worker to shut down.
func (e *Engine) dispatchWorker(fr transport.Frame) bool {
	data := fr.Data
	if len(data) == 0 {
		codec.PutBuf(data)
		return false
	}
	kind, body := data[0], data[1:]
	switch kind {
	case frBye:
		codec.PutBuf(data)
		return true
	case frArm:
		if a, err := decodeArmFrame(body); err == nil {
			e.handleArm(a)
		} else {
			e.emit(engEvent{kind: evError, err: err})
		}
	case frReq:
		if q, err := decodeReqFrame(body); err == nil {
			e.handleRequest(fr.Peer, q)
		}
	case frEvent, frReply, frHotAck:
		// Controller-bound frames; a worker never receives them.
	default:
		if d, err := decodeMsgFrame(kind, body); err == nil {
			e.deliverLocal(d.gsid, d.msg, d.dataBuf)
			if d.hotAck {
				if hm, ok := d.msg.(hotMoveMsg); ok {
					_ = e.rig.ep.Send(fr.Peer, encodeHotAckFrame(hm.period))
				}
			}
		} else {
			e.emit(engEvent{kind: evError, err: err})
		}
	}
	codec.PutBuf(data)
	return false
}

// handleArm arms this process's local shards for one period. The worker
// rebuilds the identical router table from the shipped allocation; shards
// then ack through the event path exactly as in-process shards do, so the
// controller's arm phase counts one evAck per shard regardless of where the
// shard runs.
//
// Resetting shard statistics here is sound: a completed period's statistics
// request pinged every local shard (shard → channel → dispatch edge) before
// this arm can arrive, and an aborted period wrote no statistics after its
// shards went idle.
func (e *Engine) handleArm(a armFrame) {
	e.period = a.period
	rt := newRouterTable(e.topo, a.alloc, a.numNodes)
	for i, n := range e.nodes {
		if n == nil || e.removed[i] {
			continue
		}
		for _, sh := range n.shards {
			sh.stats.reset()
		}
	}
	awaitIn := map[int][]int{}
	for _, gid := range a.awaitIn {
		g := e.gsidFor(a.alloc[gid], gid)
		awaitIn[g] = append(awaitIn[g], gid)
	}
	for i, n := range e.nodes {
		if n == nil || e.removed[i] {
			continue
		}
		for _, sh := range n.shards {
			ok := sh.mb.put(periodStartMsg{
				period:      a.period,
				router:      rt,
				barrierNeed: a.barrierNeed,
				awaitIn:     awaitIn[sh.gsid],
			})
			if !ok {
				e.emit(engEvent{kind: evError, node: i,
					err: fmt.Errorf("engine: node %d shard %d failed during arm phase (mailbox closed)", i, sh.sid)})
			}
		}
	}
}

func (e *Engine) handleRequest(peer int, q reqFrame) {
	var body []byte
	switch q.kind {
	case rqStats:
		body = e.statsReplyBody()
	case rqCkpt:
		body = e.ckptReplyBody(q.version)
	case rqProgress:
		body = encodeProgressReply(e.localProgressMilli())
	case rqSub:
		body = encodeSubReply(e.localSubMilli())
	case rqProvision:
		body = encodeOKReply(e.provisionLocal(q.provIDs, q.provOwner, q.provW))
	case rqTerminate:
		body = encodeOKReply(e.terminateLocal(q.node))
	case rqFail:
		body = encodeOKReply(e.failLocal(q.node))
	default:
		body = encodeOKReply(fmt.Errorf("engine: unknown request kind %d", q.kind))
	}
	_ = e.rig.ep.Send(peer, encodeReplyFrame(q.id, body))
	codec.PutBuf(body)
}

// pingLocalShards waits until every local alive shard has drained its
// mailbox backlog up to the ping.
func (e *Engine) pingLocalShards() {
	var shards []*shard
	for i, n := range e.nodes {
		if n == nil || e.removed[i] {
			continue
		}
		shards = append(shards, n.shards...)
	}
	ch := make(chan struct{}, len(shards))
	sent := 0
	for _, sh := range shards {
		if sh.mb.put(pingMsg{ch: ch}) {
			sent++
		}
	}
	for i := 0; i < sent; i++ {
		<-ch
	}
}

// statsReplyBody merges this process's local shard statistics into one
// integer-exact stats reply. Per-group collections are listed in ascending
// gid so the reply bytes are deterministic; comm triples come out of the
// accumulators in a deterministic order already and merge exactly regardless.
func (e *Engine) statsReplyBody() []byte {
	e.pingLocalShards()
	ng := e.topo.NumGroups()
	// Size every local group's delta against its retained tip — the worker's
	// half of finishPeriod's residency signal, spread over the barrier pool
	// the same way (a group's tip and slot are its own).
	groups := e.localGroups()
	deltas := make([]int64, len(groups))
	fanOut(barrierWorkers(len(groups)), len(groups), func(_, i int) {
		g := groups[i]
		deltas[i] = -1
		if tip := g.sh.tips[g.gid]; tip != nil && tip.decoded() != nil {
			deltas[i] = int64(statestore.DiffSize(tip.st, g.st))
		}
	})
	var nodes []nodeStatsWire
	for i, n := range e.nodes {
		if n == nil || e.removed[i] {
			continue
		}
		nw := nodeStatsWire{node: i}
		milli := make([]int64, ng)
		for _, sh := range n.shards {
			nw.migMilli += sh.stats.migMilli
			nw.bytesOut += sh.stats.bytesOut
			nw.bytesIn += sh.stats.bytesIn
			nw.batchesOut += sh.stats.batchesOut
			for gid, m := range sh.stats.groupMilli {
				milli[gid] += m
			}
			for _, c := range sh.stats.groupTuplesIn {
				nw.tuplesIn += c
			}
			for _, c := range sh.stats.groupTuplesOut {
				nw.tuplesOut += c
			}
			sh.stats.forEachComm(func(from, to int, rate float64) {
				nw.commFrom = append(nw.commFrom, int32(from))
				nw.commTo = append(nw.commTo, int32(to))
				nw.commN = append(nw.commN, int64(rate))
			})
		}
		for gid, m := range milli {
			if m != 0 {
				nw.groupMilli = append(nw.groupMilli, gidVal{gid: gid, val: m})
			}
		}
		for k, g := range groups {
			if g.node != i {
				continue
			}
			nw.stateBytes = append(nw.stateBytes, gidVal{gid: g.gid, val: int64(g.st.Size())})
			if deltas[k] >= 0 {
				nw.ckptDelta = append(nw.ckptDelta, gidVal{gid: g.gid, val: deltas[k]})
			}
		}
		nodes = append(nodes, nw)
	}
	return encodeStatsReply(nodes)
}

// decoded returns the tip's state form, decoding the retained encoding on
// first use (nil if it does not decode).
func (t *ckptTip) decoded() *State {
	if t.st == nil {
		if dec, err := statestore.DecodeState(t.data); err == nil {
			t.st = dec
		}
	}
	return t.st
}

// emptyDeltaPayload is what a checkpoint reply ships for a group that did
// not change since its tip: the encoding of the delta that changes nothing.
var emptyDeltaPayload = (&statestore.Delta{}).Encode(nil)

// ckptReplyBody encodes every local key group for the controller's
// checkpoint at `version`, in ascending gid: first-timers ship the full
// state, groups with a retained tip whatever statestore.Advance writes for
// them — the delta against the tip, or the full state when the delta would
// be no smaller. Either way the shard's tip advances to the state just
// encoded, and because the controller's store takes its step by the same
// rule on an equal tip, the two stay byte-identical. The per-group work
// spreads over the barrier pool; installing first-timers' tips, which writes
// the shards' tip maps, is serial.
func (e *Engine) ckptReplyBody(version int) []byte {
	e.pingLocalShards()
	groups := e.localGroups()
	workers := barrierWorkers(len(groups))
	scratch := e.deltaScratch(workers)
	entries := make([]ckptEntryWire, len(groups))
	fanOut(workers, len(groups), func(w, i int) {
		g := groups[i]
		en := ckptEntryWire{node: g.node, gid: g.gid}
		if tip := g.sh.tips[g.gid]; tip != nil && tip.decoded() != nil {
			// Advance the decoded mirror in place — the same tip advance the
			// controller's store performs — instead of re-encoding the whole
			// state per cadence.
			payload, step := statestore.Advance(&scratch[w], tip.st, g.st)
			tip.ver, tip.data = version, nil
			en.full = step == statestore.StepBase
			if en.payload = payload; step == statestore.StepNone {
				en.payload = emptyDeltaPayload
			}
		} else {
			en.full = true
			en.payload = g.st.Encode(make([]byte, 0, g.st.Size()))
		}
		entries[i] = en
	})
	for i, g := range groups {
		if tip := g.sh.tips[g.gid]; tip == nil || tip.st == nil {
			if g.sh.tips == nil {
				g.sh.tips = map[int]*ckptTip{}
			}
			g.sh.tips[g.gid] = &ckptTip{ver: version, data: entries[i].payload}
		}
	}
	return encodeCkptReply(entries)
}

// localProgressMilli sums the local shards' burned milli-units this period
// (atomic reads; no ping — quiesceToward polls mid-period).
func (e *Engine) localProgressMilli() int64 {
	total := int64(0)
	for i, n := range e.nodes {
		if n == nil || e.removed[i] {
			continue
		}
		for _, sh := range n.shards {
			total += sh.stats.nodeUnits.Load()
		}
	}
	return total
}

// localSubMilli sums the local shards' per-group mid-period counters
// (atomic reads, mid-period safe). Empty when sub-periods are disabled.
func (e *Engine) localSubMilli() []gidVal {
	if e.cfg.SubPeriods < 2 {
		return nil
	}
	milli := make([]int64, e.topo.NumGroups())
	for i, n := range e.nodes {
		if n == nil || e.removed[i] {
			continue
		}
		for _, sh := range n.shards {
			for gid := range milli {
				milli[gid] += sh.stats.subMilli[gid].Load()
			}
		}
	}
	var out []gidVal
	for gid, m := range milli {
		if m != 0 {
			out = append(out, gidVal{gid: gid, val: m})
		}
	}
	return out
}

// provisionLocal extends the node table with newly provisioned slots,
// starting live nodes for the ones this process owns and nil placeholders
// for the rest. Slot ids must be contiguous with the current table — the
// controller broadcasts provisions in order and awaits each reply, so a gap
// means the cluster desynchronized.
func (e *Engine) provisionLocal(ids, owners []int, weights []float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(ids) != len(owners) || len(ids) != len(weights) {
		return fmt.Errorf("engine: provision arity mismatch")
	}
	for k, id := range ids {
		if id != len(e.nodes) {
			return fmt.Errorf("engine: provision slot %d, node table has %d", id, len(e.nodes))
		}
		if owners[k] == e.self {
			n := newNode(id, e)
			e.nodes = append(e.nodes, n)
			n.start()
		} else {
			e.nodes = append(e.nodes, nil)
		}
		e.removed = append(e.removed, false)
		e.killed = append(e.killed, false)
		e.weights = append(e.weights, weights[k])
		e.invWeights = append(e.invWeights, 1/weights[k])
		e.peerOf = append(e.peerOf, owners[k])
		if weights[k] != 1 {
			e.hetero = true
		}
	}
	return nil
}

func (e *Engine) terminateLocal(id int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id < 0 || id >= len(e.nodes) || e.nodes[id] == nil {
		return fmt.Errorf("engine: terminate node %d not hosted here", id)
	}
	if e.removed[id] {
		return nil
	}
	e.removed[id] = true
	e.nodes[id].closeMailboxes()
	return nil
}

// failLocal mirrors the controller-side FailNode wipe for a locally hosted
// node (the crash-simulation path; a real crash just kills the process).
func (e *Engine) failLocal(id int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id < 0 || id >= len(e.nodes) || e.nodes[id] == nil {
		return fmt.Errorf("engine: fail node %d not hosted here", id)
	}
	if e.removed[id] {
		return fmt.Errorf("engine: node %d already gone", id)
	}
	e.removed[id] = true
	e.killed[id] = true
	e.nodes[id].closeMailboxes()
	for _, sh := range e.nodes[id].shards {
		sh.states = map[int]*State{}
		sh.tips = nil
	}
	return nil
}
