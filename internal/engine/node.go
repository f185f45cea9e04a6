package engine

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/statestore"
)

// periodStartMsg arms a shard for one period: routing snapshot, expected
// barrier counts and the key groups awaiting in-bound migration.
type periodStartMsg struct {
	period      int
	router      *routerTable
	barrierNeed []int // per op
	awaitIn     []int // gids whose state will arrive via stateMsg
}

func (periodStartMsg) isMessage() {}

// event kinds reported to the engine.
const (
	evAck = iota
	evCompletion
	evMigrated
	evError
)

type engEvent struct {
	kind  int
	node  int
	op    int
	bytes int
	// delta marks an evMigrated whose bytes are a checkpoint-assisted
	// delta transfer (not a full state), and base is the size of the tip
	// that travelled with them.
	delta bool
	base  int
	err   error
}

// node is one worker node: a pool of shard goroutines that partition the
// node's key groups by hash (Config.ShardsPerNode). Planning, host sets and
// the router table stay node-level — sharding multiplies the effective
// topology size without touching allocation decisions, treating cores
// within a node as virtual shared-nothing nodes (STRETCH).
type node struct {
	id     int
	shards []*shard
}

func newNode(id int, eng *Engine) *node {
	n := &node{id: id}
	for s := 0; s < eng.spn; s++ {
		n.shards = append(n.shards, newShard(id, s, eng))
	}
	return n
}

// start launches every shard goroutine.
func (n *node) start() {
	for _, sh := range n.shards {
		go sh.run()
	}
}

// closeMailboxes shuts every shard's mailbox.
func (n *node) closeMailboxes() {
	for _, sh := range n.shards {
		sh.mb.close()
	}
}

// shard is one worker goroutine: it owns the states of the key groups of its
// node whose hash lands on it (Engine.shardIdx), drains its own mailbox, and
// keeps its own outbox set and statistics. The per-sender FIFO invariant the
// barrier protocol needs therefore holds per shard, and shard statistics
// merge at the period barrier without hot-path locks.
type shard struct {
	nid  int // owning node id
	sid  int // shard index within the node
	gsid int // global shard id: nid*ShardsPerNode + sid
	eng  *Engine
	mb   *mailbox

	// states and awaitIn are dense per global key-group id, like the
	// statistics: both are read for every tuple. states[gid] is nil for a group
	// this shard does not hold (or has not created yet); awaitIn[gid] marks a
	// group whose state will arrive by stateMsg.
	states  []*State
	awaitIn []bool
	pending map[int][]*Tuple // gid -> engine-owned copies of tuples parked until the state arrives
	// tips holds, per hosted gid, the group's checkpoint tip: its state at its
	// last checkpoint, which delta checkpoints, the barrier's delta sizing and
	// delta migrations are cut against — in every process, the one decoded copy
	// there is. Written by the process's control goroutine between periods
	// (cutCheckpoint, and failLocal, which drops them; shards quiescent) and by
	// the shard itself (a tip handed over with its state, recovery,
	// departure). A checkpoint write reads the tips it cut beside the next
	// period, while the shard may read them too: to decide how a migration
	// goes and cut its delta (onMigrateOut), and to encode a tip that leaves
	// the process (stateMsg.flatten). A tip handed over inside the process is
	// the same object, so the write may still be reading it on its new shard;
	// its next Cut comes after the write is joined, as every Cut does.
	tips map[int]*statestore.Tip
	// potcSent tracks, per candidate key group, how much work this sender
	// instance has routed there (PoTC balances the work each sender emits
	// downstream using local knowledge).
	potcSent []float64
	// emitters caches the Emit closure per emitting gid (one closure per
	// group instead of one per processed tuple).
	emitters []Emit
	// rx is the reusable receive-path decode state (per-frame dictionary
	// table, recycled record).
	rx rxDecoder
	// tp recycles pooled emit tuples ((*Tuple).NewTuple) shard-locally: plain
	// slice ops on the owning goroutine, no sync.Pool traffic on the emit path.
	tp tupleFreeList
	// diff is the shard's reusable Delta scratch for a delta move's delta.
	diff statestore.Delta

	period      int
	router      *routerTable
	barrierNeed []int
	barrierGot  []int
	flushed     []bool
	awaitByOp   []int // per op: outstanding in-bound migrations

	stats *nodeStats
	// outs[gsid] batches this shard's deliveries to other shards (see
	// batch.go); owned exclusively by the shard goroutine, grown lazily.
	// Outboxes toward shards of the same node are flagged local: they ship
	// encoded frames like any other (preserving per-sender FIFO through the
	// destination mailbox) but count nothing toward the wire-byte or
	// serialization cost model — intra-node traffic is free, exactly as the
	// synchronous same-shard path is.
	outs []*outbox
	// cur is the operator whose Proc or Flush is running, for the error a
	// panic in it becomes.
	cur *Operator
}

func newShard(nid, sid int, eng *Engine) *shard {
	numGroups, nops := eng.topo.NumGroups(), len(eng.topo.ops)
	s := &shard{
		nid:      nid,
		sid:      sid,
		gsid:     nid*eng.spn + sid,
		eng:      eng,
		mb:       newMailbox(),
		states:   make([]*State, numGroups),
		awaitIn:  make([]bool, numGroups),
		pending:  map[int][]*Tuple{},
		tips:     map[int]*statestore.Tip{},
		potcSent: make([]float64, numGroups),
		emitters: make([]Emit, numGroups),
		stats:    newNodeStats(numGroups),

		barrierGot: make([]int, nops),
		flushed:    make([]bool, nops),
		awaitByOp:  make([]int, nops),
	}
	s.rx.rec.home = &s.tp
	return s
}

// run is the shard goroutine main loop: it drains the mailbox's whole backlog
// per wakeup and processes the batch in order, recycling the spent slice.
func (s *shard) run() {
	var batch []message
	for {
		var ok bool
		batch, ok = s.mb.drain(batch)
		if !ok {
			return
		}
		for i, msg := range batch {
			batch[i] = nil // release the reference for the recycled buffer
			switch m := msg.(type) {
			case periodStartMsg:
				s.startPeriod(m)
			case dataBatchMsg:
				s.onDataBatch(m)
			case barrierMsg:
				s.onBarrier(m)
			case stateMsg:
				s.onState(m)
			case migrateOutMsg:
				s.onMigrateOut(m)
			case recoverMsg:
				s.onRecover(m)
			case pingMsg:
				m.ch <- struct{}{}
			}
		}
	}
}

// outFor returns the outbox for destination shard g (a global shard id),
// growing the table as nodes are added.
func (s *shard) outFor(g int) *outbox {
	for len(s.outs) <= g {
		s.outs = append(s.outs, nil)
	}
	if s.outs[g] == nil {
		s.outs[g] = &outbox{local: g/s.eng.spn == s.nid}
	}
	return s.outs[g]
}

// flushOut ships the outbox for shard g (if non-empty) as one dataBatchMsg.
func (s *shard) flushOut(g int) {
	if g >= len(s.outs) || s.outs[g] == nil {
		return
	}
	if m, ok := s.outs[g].take(s.period); ok {
		if !m.local {
			s.stats.batchesOut++
		}
		s.eng.deliver(g, m)
	}
}

// flushAllOut ships every non-empty outbox. Must be called before enqueuing
// any message that has to be ordered after this shard's data (barriers), so
// the per-sender FIFO invariant extends through sender-side batching.
func (s *shard) flushAllOut() {
	for g := range s.outs {
		s.flushOut(g)
	}
}

func (s *shard) startPeriod(m periodStartMsg) {
	s.period = m.period
	s.router = m.router
	s.barrierNeed = m.barrierNeed
	clear(s.barrierGot)
	clear(s.flushed)
	clear(s.awaitByOp)
	for _, gid := range m.awaitIn {
		s.awaitIn[gid] = true
		op, _ := s.eng.topo.OpOf(gid)
		s.awaitByOp[op]++
	}
	// Flushing is triggered exclusively by barriers (the engine sends
	// synthetic barriers to hosts of input-less operators after all shards
	// acked, so emissions never race a peer's period start).
	s.eng.emit(engEvent{kind: evAck, node: s.nid})
}

// onMigrateOut hands (op, kg)'s state over to the owning shard of the
// destination node and reports the migrated volume to the engine for the
// latency model. The shard keeps nothing of it: not the state, which belongs
// to the destination now, nor the tip. Only a move to another process encodes
// anything (stateMsg.flatten, inside Engine.deliver); the cost model charges
// the same sizes either way, each the length of the encoding it stands for.
//
// This shard holds the group's checkpoint tip, if it has one, and decides
// alone how the group travels. A move goes by delta when the last barrier
// measured the delta against the tip smaller than the state
// (statestore.Tip.Pending; a tip cut or adopted since has an empty delta):
// the tip travels with the state, and the move is charged the delta of the
// state against it — unless the delta turns out no smaller after all, and
// then the state goes whole. A whole move strands the tip.
func (s *shard) onMigrateOut(m migrateOutMsg) {
	gid := s.eng.topo.GID(m.op, m.kg)
	destG := s.eng.gsidFor(m.dest, gid)
	msg := stateMsg{op: m.op, kg: m.kg, st: s.states[gid]}
	tip := s.tips[gid]
	s.states[gid] = nil
	delete(s.tips, gid)
	if msg.st != nil {
		msg.size = msg.st.Size()
	}
	if tip != nil && tip.Pending() < msg.size {
		tip.DiffInto(&s.diff, msg.st)
		if sz := s.diff.Size(); sz < msg.size {
			msg.tip, msg.d, msg.size = tip, &s.diff, sz
		}
	}
	// Flush buffered data for the destination first so every message this
	// sender ever enqueues there stays in send order (uniform FIFO, not
	// strictly needed by the awaitIn protocol but what the documented
	// invariant promises).
	s.flushOut(destG)
	s.stats.addMigUnits(float64(msg.size) * serCostPerByte)
	s.eng.deliver(destG, msg)
	ev := engEvent{kind: evMigrated, node: s.nid, bytes: msg.size}
	if msg.tip != nil {
		ev.delta, ev.base = true, tip.State().Size()
	}
	s.eng.emit(ev)
}

// onDataBatch decodes one frame and processes its tuples in order. Frames
// from other nodes pay deserialization per record; frames from a sibling
// shard of the same node (m.local) decode identically but cost nothing in
// the model — intra-node traffic never crosses the wire. Records decode into
// a reusable tuple whose strings alias the frame bytes — nothing is copied
// unless a key group's state is still in flight (then a deep copy is parked) —
// so the frame goes back to the codec pool only after the whole batch.
func (s *shard) onDataBatch(m dataBatchMsg) {
	s.contain("process", func() {
		err := decodeBatch(m.encoded, &s.rx, s.eng.topo.ops[m.op].KeyGroups, func(kg int, t *Tuple, wire int) {
			gid := s.eng.topo.GID(m.op, kg)
			if !m.local {
				s.stats.bytesIn += int64(wire)
				s.stats.addUnits(gid, float64(wire)*deserCostPerByte)
			}
			if s.awaitIn[gid] {
				// Direct state migration: the group's state has not arrived
				// yet; park a copy (t dies with this callback) and replay on
				// arrival.
				s.pending[gid] = append(s.pending[gid], t.Clone())
				return
			}
			s.process(m.op, kg, gid, t)
		})
		if err != nil {
			s.eng.emit(engEvent{kind: evError, node: s.nid, err: err})
		}
	})
	codec.PutBuf(m.encoded)
}

func (s *shard) process(op, kg, gid int, t *Tuple) {
	o := s.eng.topo.ops[op]
	st := s.states[gid]
	if st == nil {
		st = statestore.NewState()
		s.states[gid] = st
	}
	s.stats.tuplesIn++
	s.stats.addUnits(gid, o.Cost)
	outer := s.cur
	s.cur = o
	o.Proc(t, st, s.emitFrom(op, gid))
	s.cur = outer
}

// contain runs f — one frame's tuples, one state's parked tuples, one group's
// flush — and turns a panic of a user operator in it into an error: the rest
// of f is dropped and the error surfaces through RunPeriod instead of killing
// the worker goroutine mid-period (which would hang the barrier protocol). A
// deferred recover costs too much to pay per tuple.
func (s *shard) contain(phase string, f func()) {
	defer func() {
		if r := recover(); r != nil {
			if s.cur == nil {
				panic(r) // not an operator's: a bug of the engine
			}
			s.eng.emit(engEvent{kind: evError, node: s.nid,
				err: fmt.Errorf("engine: operator %q panicked in %s on node %d: %v", s.cur.Name, phase, s.nid, r)})
			s.cur = nil
		}
	}()
	f()
}

func (s *shard) onBarrier(m barrierMsg) {
	if m.period != s.period {
		s.eng.emit(engEvent{kind: evError, node: s.nid,
			err: fmt.Errorf("engine: node %d got barrier for period %d during %d", s.nid, m.period, s.period)})
		return
	}
	s.barrierGot[m.op]++
	s.maybeFlush(m.op)
}

// onState installs a handed-over state and keeps the tip that came with it
// (a whole move arrives tipless). A group that had no state arrives without
// one, as if it had stayed: process creates it with the first tuple, so where
// the group ran does not show in StateBytes. Only the size the source charged
// is synchronous work in the cost model; a delta move's tip is the checkpoint
// fault tolerance already paid for.
func (s *shard) onState(m stateMsg) {
	gid := s.eng.topo.GID(m.op, m.kg)
	if m.tip != nil {
		s.tips[gid] = m.tip
	} else {
		delete(s.tips, gid)
	}
	s.stats.addMigUnits(float64(m.size) * deserCostPerByte)
	s.states[gid] = m.st
	if s.awaitIn[gid] {
		s.awaitIn[gid] = false
		s.awaitByOp[m.op]--
	}
	// Replay the parked tuples in arrival order; the copies go back to the
	// pool once replayed.
	buf := s.pending[gid]
	delete(s.pending, gid)
	s.contain("process", func() {
		for _, t := range buf {
			s.process(m.op, m.kg, gid, t)
			putTuple(t)
		}
	})
	s.maybeFlush(m.op)
}

// maybeFlush closes operator op's barrier wave on this shard once all
// upstream barriers arrived and all in-bound migrations for its local groups
// completed: the shard's key groups of op are flushed and the wave goes on
// downstream. Every shard of a hosting node participates in the barrier/flush
// protocol — barrier counts scale with ShardsPerNode on both ends — even when
// the hash assigned it no key groups of op.
func (s *shard) maybeFlush(op int) {
	if s.barrierNeed == nil || s.flushed[op] {
		return
	}
	kgs := s.router.localKGs[s.nid][op]
	if len(kgs) == 0 {
		return // node not a host of op (host sets change only when a period is armed)
	}
	if s.barrierGot[op] < s.barrierNeed[op] || s.awaitByOp[op] > 0 {
		return
	}
	o := s.eng.topo.ops[op]
	if o.Flush != nil {
		for _, kg := range kgs {
			gid := s.eng.topo.GID(op, kg)
			if int(s.eng.shardIdx[gid]) != s.sid {
				continue
			}
			st := s.states[gid]
			if st == nil {
				st = statestore.NewState()
				s.states[gid] = st
			}
			s.contain("flush", func() {
				s.cur = o
				o.Flush(kg, st, s.emitFrom(op, gid))
				s.cur = nil
			})
		}
	}
	s.flushed[op] = true
	// Propagate barriers downstream: this instance is done for the period.
	// Ship every buffered data batch first — a barrier must never overtake
	// data this sender staged before it (per-sender FIFO invariant). Every
	// shard of every downstream host expects one barrier from this shard.
	s.flushAllOut()
	spn := s.eng.spn
	for _, e := range s.eng.topo.opEdges[op] {
		for _, host := range s.router.hosts[e.op] {
			for i := 0; i < spn; i++ {
				s.sendBarrier(host*spn+i, e.op)
			}
		}
	}
	s.eng.emit(engEvent{kind: evCompletion, node: s.nid, op: op})
}

func (s *shard) sendBarrier(destG, op int) {
	msg := barrierMsg{op: op, period: s.period}
	if destG == s.gsid {
		// Self-delivery through the mailbox keeps FIFO with prior sends.
		s.mb.put(msg)
		return
	}
	s.eng.deliver(destG, msg)
}

// onRecover installs a recovered state (shipped by the controller after a
// node failure): the checkpointed encoding when one existed, a fresh empty
// state otherwise. Any stale in-flight bookkeeping for the group is dropped —
// recovery happens between periods, after the failed node's groups were
// reassigned.
func (s *shard) onRecover(m recoverMsg) {
	gid := s.eng.topo.GID(m.op, m.kg)
	st := statestore.NewState()
	if len(m.encoded) > 0 {
		if err := statestore.DecodeStateInto(m.encoded, st); err != nil {
			s.eng.emit(engEvent{kind: evError, node: s.nid,
				err: fmt.Errorf("engine: node %d recovered state for group %d: %w", s.nid, gid, err)})
			return
		}
	}
	s.states[gid] = st
	if m.tipVer >= 0 {
		// The restored state IS the checkpoint: a copy of it is the tip.
		tip := statestore.NewTip(m.tipVer, st.Clone(), m.encoded)
		tip.Track(st)
		s.tips[gid] = tip
	} else {
		delete(s.tips, gid)
	}
	delete(s.pending, gid)
	if s.awaitIn[gid] {
		s.awaitIn[gid] = false
		s.awaitByOp[m.op]--
	}
}

// emitFrom returns the Emit closure for (op, gid): it routes the tuple to
// every downstream operator of op, then recycles a pooled tuple into the pool
// it came from. Closures are cached per gid — the Emit for a group is
// identical across tuples, so the hot path allocates none.
func (s *shard) emitFrom(op, fromGID int) Emit {
	if e := s.emitters[fromGID]; e != nil {
		return e
	}
	e := func(t *Tuple) {
		s.stats.tuplesOut++
		for _, e := range s.eng.topo.opEdges[op] {
			s.routeTo(e, fromGID, t)
		}
		if t.pooled {
			// Engine-owned emit tuple: routing fully encoded (or cloned) it;
			// nothing retains it past this point.
			recycle(t)
		}
	}
	s.emitters[fromGID] = e
	return e
}

// routeTo delivers t to downstream edge e.
func (s *shard) routeTo(e edge, fromGID int, t *Tuple) {
	rt := s.router
	key := t.Key
	if e.keyBy != nil {
		key = e.keyBy(t)
	}
	kg := rt.keyGroup(e.op, key)
	if e.twoChoice {
		// PoTC: each key has two candidate key groups (h1, h2); the sender
		// balances the work it emits between them using its local counters
		// ("each operator instance tries to balance the amount of work sent
		// downstream").
		alt := rt.altKeyGroup(e.op, key)
		if s.potcSent[s.eng.topo.GID(e.op, alt)] < s.potcSent[s.eng.topo.GID(e.op, kg)] {
			kg = alt
		}
		// Each send counts 1/weight of the node that hosts its group, so on a
		// heterogeneous cluster the counters hold capacity-relative work (a
		// group that moves between nodes of different weights keeps the
		// history it was sent at).
		s.potcSent[s.eng.topo.GID(e.op, kg)] += s.eng.invWeights[rt.nodeOf(e.op, kg)]
	}
	dest := rt.nodeOf(e.op, kg)
	toGID := s.eng.topo.GID(e.op, kg)
	s.stats.comm.add(fromGID, toGID)
	if dest == s.nid && int(s.eng.shardIdx[toGID]) == s.sid {
		// Shard-local edge: no serialization, t is processed synchronously.
		if s.awaitIn[toGID] {
			// Emit has consumed t when it returns (a pooled t is recycled, any
			// t's strings may be a frame's): park a copy the engine owns.
			s.pending[toGID] = append(s.pending[toGID], t.Clone())
			return
		}
		// The Proc may emit t itself; it stays this Emit's to recycle, once
		// every edge has routed it.
		pooled := t.pooled
		t.pooled = false
		s.process(e.op, kg, toGID, t)
		t.pooled = pooled
		return
	}
	// Cross-shard edge: pay serialization and stage into the per-destination
	// batch when the destination is another node; a sibling shard of this
	// node rides the same encoded path (preserving per-sender FIFO through
	// its mailbox) but costs nothing in the model. Batches are per
	// (destShard, op): switching operators ships the previous batch so a
	// frame never mixes operators.
	destG := s.eng.gsidFor(dest, toGID)
	ob := s.outFor(destG)
	if ob.count > 0 && ob.op != e.op {
		s.flushOut(destG)
	}
	ob.op = e.op
	wire := ob.stage(kg, t)
	if !ob.local {
		s.stats.bytesOut += int64(wire)
		s.stats.addUnits(fromGID, float64(wire)*serCostPerByte)
	}
	if ob.full() {
		s.flushOut(destG)
	}
}
