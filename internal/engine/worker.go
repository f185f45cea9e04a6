package engine

import (
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/statestore"
	"repro/internal/transport"
)

// Worker-side execution, and the host-local half of every control operation.
// A worker process runs an Engine whose node table holds live nodes only for
// the slots this process owns (the rest are nil) and no control loop of its
// own. ServeWorker drains the transport endpoint: data-plane frames become
// mailbox messages for hosted shards, frArm arms them for a period, and frReq
// serves the controller's stats/checkpoint/provision/terminate/fail requests.
// Shards report their events (acks, completions, migrations, errors) back to
// the controller through Engine.emit, which encodes them as frEvent frames —
// shard code cannot tell which process it runs in.
//
// armLocal, provisionLocal, terminateLocal and failLocal act on the nodes this
// process hosts and nothing else: the controller's methods call them for its
// own nodes and then ask each worker peer to do the same, and the handlers
// below are those requests arriving.
// The three that write the node table expect the caller to hold e.mu wherever
// another goroutine may read it — the controller's methods do, a worker's
// serve loop is the table's only user. The barrier fold and the checkpoint are
// the same functions on either side — foldLocal (stats.go) behind readStats
// (at the period barrier) and rqStats,
// cutCheckpoint and ckptWrite.run (below) behind TakeCheckpoint and rqCkpt:
// every shard holds the checkpoint tips of the groups it hosts, and
// the controller's store records what the tip-holders wrote. A worker answers
// rqCkpt as soon as its cut is taken, with a summary of it, and runs the write
// beside the next period on a goroutine of its own, which answers the
// controller's rqCkptWrite with the payloads once they are written — the
// dispatch loop only hands it the request, and never waits for an encode.

// pingMsg flushes a shard's mailbox: the shard replies on ch once every
// message enqueued before the ping has been processed. The worker dispatch
// loop pings all local shards before reading their states or statistics,
// which also establishes the happens-before edge the race detector needs.
type pingMsg struct{ ch chan struct{} }

func (pingMsg) isMessage() {}

// recoverMsg installs a recovered state on a shard (Engine.Recover, for a
// hosted node and a remote one alike). tipVer >= 0 marks encoded as the
// group's checkpoint at that version: the shard keeps a copy as its tip.
type recoverMsg struct {
	op, kg  int
	encoded []byte
	tipVer  int
}

func (recoverMsg) isMessage() {}

// ServeWorker runs the worker dispatch loop until the controller says bye,
// the controller link drops, or the endpoint closes, then shuts the worker
// down. It must only be called on an engine built by NewWorker.
func (e *Engine) ServeWorker() error {
	err := e.rig.serve(e.dispatchWorker)
	e.Close()
	return err
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
		var a armFrame
		if err := decode(body, &a); err == nil {
			e.handleArm(a)
		} else {
			e.emit(engEvent{kind: evError, err: err})
		}
	case frReq:
		// A request that does not decode is still answered when its id did —
		// the controller's round trip must end, and its reply decoder fails on
		// the error body with this peer named — and reported otherwise.
		var q reqFrame
		switch err := decode(body, &q); {
		case err == nil:
			e.handleRequest(fr.Peer, q)
		case q.id != 0:
			e.reply(fr.Peer, q.id, &okReply{err})
		default:
			e.emit(engEvent{kind: evError, err: err})
		}
	case frEvent, frReply:
		// Controller-bound frames; a worker never receives them.
	default:
		e.rig.dispatchData(kind, body)
	}
	codec.PutBuf(data)
	return false
}

// handleArm arms this process's hosted shards for one period. The worker
// rebuilds the identical router table from the shipped allocation; shards then
// ack through the event path exactly as the controller's own do, so the
// controller's arm phase counts one evAck (or one error) per shard regardless
// of where the shard runs. A frame that does not fit the topology arms
// nothing: every hosted shard's answer is the error instead, which fails the
// period.
func (e *Engine) handleArm(a armFrame) {
	if err := e.checkArm(a); err != nil {
		for sh := range e.localShards {
			e.emit(engEvent{kind: evError, node: sh.nid, err: err})
		}
		return
	}
	e.period = a.period
	awaitIn := map[int][]int{}
	for _, gid := range a.awaitIn {
		g := e.gsidFor(a.alloc[gid], gid)
		awaitIn[g] = append(awaitIn[g], gid)
	}
	_, errs := e.armLocal(periodStartMsg{
		period:      a.period,
		router:      newRouterTable(e.topo, a.alloc, a.numNodes),
		barrierNeed: a.barrierNeed,
	}, awaitIn)
	for _, err := range errs {
		e.emit(engEvent{kind: evError, err: err})
	}
}

// checkArm bounds an arm frame against the topology and the node table before
// anything indexes with it: one node below numNodes per group, numNodes the
// slots this process knows, one barrier count per operator and only groups of
// the topology awaited.
func (e *Engine) checkArm(a armFrame) error {
	ng, nops := e.topo.NumGroups(), len(e.topo.ops)
	switch {
	case a.numNodes != len(e.nodes):
		return fmt.Errorf("engine: arm frame for %d nodes, the node table has %d", a.numNodes, len(e.nodes))
	case len(a.alloc) != ng:
		return fmt.Errorf("engine: arm frame allocates %d groups of %d", len(a.alloc), ng)
	case len(a.barrierNeed) != nops:
		return fmt.Errorf("engine: arm frame counts barriers for %d operators of %d", len(a.barrierNeed), nops)
	case slices.ContainsFunc(a.alloc, func(n int) bool { return n >= a.numNodes }):
		return fmt.Errorf("engine: arm frame puts a group on a node past its %d", a.numNodes)
	case slices.ContainsFunc(a.awaitIn, func(gid int) bool { return gid >= ng }):
		return fmt.Errorf("engine: arm frame awaits a group past the topology's %d", ng)
	}
	return nil
}

// armLocal arms every alive hosted shard with m plus its own entry of awaitIn
// (global shard id -> gids arriving by stateMsg), after resetting its period
// statistics. It returns how many shards were armed, each of which acks
// through the event path, and one error per shard whose mailbox is already
// closed: a crash the control plane has not absorbed yet, which can never
// ack.
//
// Resetting here is sound: shards are quiescent between periods. On the
// controller the previous period's completion events order their last writes
// before this call; on a worker the completed period's statistics request
// pinged every hosted shard (shard → channel → dispatch edge) before this arm
// can arrive, and an aborted period wrote no statistics after its shards went
// idle.
func (e *Engine) armLocal(m periodStartMsg, awaitIn map[int][]int) (armed int, errs []error) {
	for sh := range e.localShards {
		sh.stats.reset()
		m.awaitIn = awaitIn[sh.gsid]
		if sh.mb.put(m) {
			armed++
		} else {
			errs = append(errs, fmt.Errorf("engine: node %d shard %d failed during arm phase (mailbox closed)", sh.nid, sh.sid))
		}
	}
	return armed, errs
}

func (e *Engine) handleRequest(peer int, q reqFrame) {
	var body wireMsg
	switch q.kind {
	case rqStats:
		e.pingLocalShards()
		edges := codec.Wire{B: codec.GetBuf()}
		acc, groups := e.foldLocal(q.version, func(from, to int, n float64) {
			c := int64(n)
			commEdge(&edges, &from, &to, &c, maxWireGroups)
		})
		e.reply(peer, q.id, &statsReply{acc: acc, groups: groups, edges: edges.B})
		codec.PutBuf(edges.B)
		return
	case rqCkpt:
		// The reply is the cut's summary; the write runs beside the next
		// period and answers the rqCkptWrite that follows.
		e.joinCheckpoint()
		e.pingLocalShards()
		e.cutCheckpoint(q.version, q.dirs)
		e.reply(peer, q.id, (*ckptSummary)(&e.write.entries))
		e.startWorkerWrite()
		return
	case rqCkptWrite:
		if w := &e.write; w.ask != nil {
			w.ask <- q.id // buffered: the write's goroutine replies
			w.ask = nil
			return
		}
		body = &okReply{fmt.Errorf("engine: no checkpoint write to answer")}
	case rqProvision:
		body = &okReply{e.provisionLocal(q.provIDs, q.provOwner)}
	case rqTerminate:
		body = &okReply{e.terminateLocal(q.node)}
	case rqFail:
		body = &okReply{e.failLocal(q.node)}
	default:
		body = &okReply{fmt.Errorf("engine: unknown request kind %d", q.kind)}
	}
	e.reply(peer, q.id, body)
}

// reply answers request id with body.
func (e *Engine) reply(peer, id int, body wireMsg) {
	_ = e.rig.ep.Send(peer, encode(frReply, &replyFrame{id: id, body: body}))
}

// localShards yields the shards of every alive node this process hosts.
func (e *Engine) localShards(yield func(*shard) bool) {
	for i, n := range e.nodes {
		if n == nil || e.removed[i] {
			continue
		}
		for _, sh := range n.shards {
			if !yield(sh) {
				return
			}
		}
	}
}

// pingLocalShards waits until every local alive shard has drained its
// mailbox backlog up to the ping.
func (e *Engine) pingLocalShards() {
	ch := make(chan struct{}, len(e.nodes)*e.spn)
	sent := 0
	for sh := range e.localShards {
		if sh.mb.put(pingMsg{ch: ch}) {
			sent++
		}
	}
	for i := 0; i < sent; i++ {
		<-ch
	}
}

// ckptWrite is the second half of a checkpoint: the encodes its cut left to
// do, one entry per hosted group in shard order, which every process runs
// beside the next period. The controller records them, and what each worker's
// write sent it, when it joins them (Engine.joinCheckpoint); a worker's write
// answers the controller's rqCkptWrite from its own goroutine. Reused from
// checkpoint to checkpoint.
type ckptWrite struct {
	version int
	entries []ckptEntryWire
	deltas  []statestore.Delta // entries[i].d is &deltas[i]
	dirs    []ckptDirective    // the cut's, per entry
	// done is closed once every payload is written (and, on a worker, sent);
	// nil when no write is pending.
	done chan struct{}
	// remote holds, on the controller, the workers' shares of the write.
	remote []*remoteWrite
	// ask hands a worker's write the id of the rqCkptWrite to answer (nil once
	// handed over); quit abandons an unasked write.
	ask  chan int
	quit chan struct{}
}

// run writes every entry's payload (statestore.Tip.Write) over the barrier
// pool: it reads the tips and deltas of the cut and never a live state.
func (w *ckptWrite) run() {
	fanOut(barrierWorkers(len(w.entries)), len(w.entries), func(_, i int) {
		if en := &w.entries[i]; en.step != statestore.StepNone {
			en.payload = en.tip.Write(en.step, en.d, make([]byte, 0, en.size))
		}
	})
}

// startWorkerWrite runs a worker's write beside the next period: once it is
// done and the controller has asked for it (rqCkptWrite), the payloads go to
// the controller as the reply, from the write's own goroutine, so the
// dispatch loop never waits for an encode.
func (e *Engine) startWorkerWrite() {
	w := &e.write
	w.done, w.ask, w.quit = make(chan struct{}), make(chan int, 1), make(chan struct{})
	go func(ask <-chan int, quit <-chan struct{}, done chan<- struct{}) {
		defer close(done)
		defer clear(w.entries)
		w.run()
		var id int
		select {
		case id = <-ask:
		case <-quit:
			select {
			case id = <-ask: // asked, then abandoned: the answer still goes out
			default:
				return
			}
		}
		e.reply(0, id, ckptPayloads(w.entries))
	}(w.ask, w.quit, w.done)
}

// cutCheckpoint takes the first half of a checkpoint at version into e.write,
// the same in every process: each hosted group's tip is brought up to its
// live state (statestore.Tip.Cut: nothing, the delta, or a fresh base — always
// a base for a group without a tip, which gets one), and one entry per group,
// in shard order, says what its write will encode. dirs, in ascending gid (the
// store's order), is what the controller's store says about the groups'
// chains: a delta past a group's bound is written as a base (a group without a
// directive has bound -1). The cuts spread over the barrier pool; handing
// first-timers their tips, which writes the shards' tip maps, is serial.
// Shards must be quiescent and the last write joined.
func (e *Engine) cutCheckpoint(version int, dirs []ckptDirective) {
	groups := e.localGroups()
	w := &e.write
	w.dirs = slices.Grow(w.dirs[:0], len(groups))[:len(groups)]
	for i := range groups {
		g := &groups[i]
		if g.tip == nil {
			g.tip = &statestore.Tip{}
			g.sh.tips[g.gid] = g.tip
		}
		w.dirs[i] = ckptDirective{gid: g.gid, bound: -1}
		if k, ok := slices.BinarySearchFunc(dirs, g.gid, func(d ckptDirective, gid int) int { return d.gid - gid }); ok {
			w.dirs[i] = dirs[k]
		}
	}
	w.version = version
	if n := len(groups) - len(w.deltas); n > 0 {
		w.deltas = append(w.deltas, make([]statestore.Delta, n)...)
	}
	w.entries = slices.Grow(w.entries[:0], len(groups))[:len(groups)]
	fanOut(barrierWorkers(len(groups)), len(groups), func(_, i int) {
		g, d := groups[i], &w.deltas[i]
		step, cut := g.tip.Cut(d, version, g.st)
		size := cut
		if step == statestore.StepDelta && cut > w.dirs[i].bound {
			step, size = statestore.StepBase, g.tip.State().Size()
		}
		w.entries[i] = ckptEntryWire{gid: g.gid, step: step, cut: cut, size: size, tip: g.tip, d: d}
	})
}

// provisionLocal extends the node table with newly provisioned slots of
// weight 1, starting live nodes for the ones this process owns and nil
// placeholders for the rest. Slot ids must be contiguous with the current
// table — the controller broadcasts provisions in order and awaits each
// reply, so a gap means the cluster desynchronized.
func (e *Engine) provisionLocal(ids, owners []int) error {
	if len(ids) != len(owners) {
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
		e.weights = append(e.weights, 1)
		e.invWeights = append(e.invWeights, 1)
		e.peerOf = append(e.peerOf, owners[k])
	}
	return nil
}

// terminateLocal marks node slot id removed and, if it runs here, closes its
// mailboxes. Whether the node may go is the controller's decision, made
// against its authoritative allocation tables before this is called.
func (e *Engine) terminateLocal(id int) error {
	if id < 0 || id >= len(e.nodes) {
		return fmt.Errorf("engine: terminate invalid node %d", id)
	}
	if !e.removed[id] {
		e.removed[id] = true
		if n := e.nodes[id]; n != nil {
			n.closeMailboxes()
		}
	}
	return nil
}

// failLocal is a crash of node slot id between periods: the slot is gone and,
// if it ran here, its goroutines stop and every state and checkpoint tip it
// held is lost (a real crash just kills the process).
func (e *Engine) failLocal(id int) error {
	if id < 0 || id >= len(e.nodes) {
		return fmt.Errorf("engine: fail invalid node %d", id)
	}
	if e.removed[id] {
		return fmt.Errorf("engine: node %d already gone", id)
	}
	e.removed[id] = true
	e.killed[id] = true
	if n := e.nodes[id]; n != nil {
		n.closeMailboxes()
		for _, sh := range n.shards {
			sh.states = make([]*State, len(sh.states))
			sh.tips = map[int]*statestore.Tip{}
		}
	}
	return nil
}
