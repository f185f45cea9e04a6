package engine

import (
	"errors"
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/statestore"
)

// Control-frame schema: the wire form of every message the engine exchanges
// between processes. Data-plane messages (data batches, barriers, state
// transfers, migrate-outs, recoveries) map 1:1 onto the mailbox message
// types of mailbox.go — a remote deliver encodes the message here, the
// receiving process's dispatch loop decodes it and puts the identical
// message into the owning shard's mailbox, so shard code cannot tell local
// from remote senders. Control-plane frames (arm, events, request/reply)
// implement the controller↔worker protocol of net.go.
//
// Every frame is [kind byte][fields]. Each message is described once, by a
// wire method that lists its fields through a codec.Wire: the same method
// encodes the message (each field is appended) and decodes it (each field is
// read back and checked against a hard bound — these frames arrive from the
// network, so FuzzControlFrame hammers exactly this surface), so a field
// that only one side knows about cannot exist. Integers are uvarints (a -1
// sentinel is shifted by +1), strings and byte blobs are length-prefixed;
// wire_golden_test.go pins the bytes of every message.

const (
	frData byte = iota + 1
	frBarrier
	frState
	frMigrateOut
	_ // retired: a pre-copy chunk; the other kinds keep their bytes
	frRecover
	frArm
	frEvent
	frReq
	frReply
	frBye
)

// request kinds carried inside frReq.
const (
	rqStats byte = iota + 1
	rqCkpt
	_ // retired: a progress poll; the other kinds keep their bytes
	_ // retired: a segment boundary's load poll (segments are gone)
	rqProvision
	rqTerminate
	rqFail
	// rqCkptWrite asks for the payloads of the last rqCkpt's write; the worker
	// answers it once the write is done.
	rqCkptWrite
)

// wire hardening bounds (far above anything legitimate at paper scale).
const (
	maxWireGroups = 1 << 22
	maxWireNodes  = 1 << 20
	maxWireBlob   = 256 << 20
	maxWireErr    = 1 << 12
	maxWireSeq    = 1 << 40 // periods, checkpoint versions, request ids
)

// wireMsg is a message that crosses processes, described by its wire method.
type wireMsg interface{ wire(*codec.Wire) }

// encode returns m's frame, kind and then m's fields, in a pooled buffer.
func encode(kind byte, m wireMsg) []byte {
	w := codec.Wire{B: append(codec.GetBuf(), kind)}
	m.wire(&w)
	return w.B
}

// decode reads body — a frame after its kind byte, or a reply's body — whole
// into m.
func decode(body []byte, m wireMsg) error {
	w := codec.Wire{B: body, Reading: true}
	m.wire(&w)
	return w.Done()
}

// --- data-plane messages -------------------------------------------------

func (m *dataBatchMsg) wire(w *codec.Wire) {
	w.Int(&m.op, maxWireNodes)
	w.Int(&m.period, maxWireSeq)
	w.Int(&m.count, maxWireBlob)
	w.Blob(&m.encoded, maxWireBlob)
}

func (m *barrierMsg) wire(w *codec.Wire) {
	w.Int(&m.op, maxWireNodes)
	w.Int(&m.period, maxWireSeq)
}

// wire carries a state transfer's wire form (stateMsg's flatten and
// unflatten convert it to and from the state and tip it hands over).
func (m *stateMsg) wire(w *codec.Wire) {
	w.Int(&m.op, maxWireNodes)
	w.Int(&m.kg, maxWireGroups)
	w.Bool(&m.delta)
	w.Signed(&m.baseVer, maxWireSeq)
	w.Int(&m.chain.Base, maxWireBlob)
	w.Int(&m.chain.Deltas, maxWireSeq)
	w.Int(&m.chain.DeltaBytes, maxWireBlob)
	w.Blob(&m.encoded, maxWireBlob)
	w.Blob(&m.base, maxWireBlob)
}

// flatten fills in m's wire form from what it hands over: the state in
// storage order (EncodeTransfer: the receiver decodes it once and drops it),
// or for a delta move the delta, and the tip's encoding as the base beside
// the shape of its chain. A message without a state has nothing to fill in.
func (m *stateMsg) flatten() {
	switch {
	case m.st == nil:
	case m.tip == nil:
		m.encoded = m.st.EncodeTransfer(make([]byte, 0, m.size))
	default:
		m.encoded = m.d.EncodeTransfer(make([]byte, 0, m.size))
		m.delta, m.baseVer, m.chain, m.base = true, m.tip.Version(), m.tip.Chain(), m.tip.Encoding()
	}
}

// unflatten rebuilds, from the wire form a transfer arrived in, the state and
// tip its source handed over: the state decoded, or for a delta move the
// base decoded as the tip (its bytes kept as the tip's encoding, its chain's
// shape as it arrived) and a copy of it that the tip tracks, with the delta
// applied. The size charged is the bytes that carried the state or the delta.
func (m *stateMsg) unflatten() error {
	m.size = len(m.encoded)
	if !m.delta {
		if len(m.encoded) > 0 {
			m.st = statestore.NewState()
			if err := statestore.DecodeStateInto(m.encoded, m.st); err != nil {
				return fmt.Errorf("state for group %d of operator %d: %w", m.kg, m.op, err)
			}
		}
		return nil
	}
	var d statestore.Delta
	if rest, err := statestore.DecodeDeltaInto(m.encoded, &d); err != nil || len(rest) != 0 {
		return fmt.Errorf("state delta for group %d of operator %d: %v (%d trailing)", m.kg, m.op, err, len(rest))
	}
	base := statestore.NewState()
	if err := statestore.DecodeStateInto(m.base, base); err != nil {
		return fmt.Errorf("checkpoint base for group %d of operator %d: %w", m.kg, m.op, err)
	}
	m.st = statestore.NewState()
	m.st.CopyFrom(base)
	m.tip = statestore.NewTip(m.baseVer, base, m.base, m.chain)
	m.tip.Track(m.st)
	d.Apply(m.st)
	return nil
}

func (m *migrateOutMsg) wire(w *codec.Wire) {
	w.Int(&m.op, maxWireNodes)
	w.Int(&m.kg, maxWireGroups)
	w.Int(&m.dest, maxWireNodes)
}

func (m *recoverMsg) wire(w *codec.Wire) {
	w.Int(&m.op, maxWireNodes)
	w.Int(&m.kg, maxWireGroups)
	w.Signed(&m.tipVer, maxWireSeq)
	w.Blob(&m.encoded, maxWireBlob)
}

// encodeMsgFrame encodes one mailbox message for remote shard gsid into a
// pooled buffer: kind, gsid, the message. A message that never crosses
// processes (periodStartMsg — the arm frame replaces it) is a programming
// error here. Both directions switch on the concrete type, so a
// data-plane message never escapes through an interface call.
func encodeMsgFrame(gsid int, msg message) []byte {
	w := codec.Wire{B: append(codec.GetBuf(), 0)}
	w.Int(&gsid, maxWireNodes)
	switch m := msg.(type) {
	case dataBatchMsg:
		w.B[0] = frData
		m.wire(&w)
	case barrierMsg:
		w.B[0] = frBarrier
		m.wire(&w)
	case stateMsg:
		w.B[0] = frState
		m.flatten()
		m.wire(&w)
	case migrateOutMsg:
		w.B[0] = frMigrateOut
		m.wire(&w)
	case recoverMsg:
		w.B[0] = frRecover
		m.wire(&w)
	default:
		panic(fmt.Sprintf("engine: message %T cannot cross processes", msg))
	}
	return w.B
}

// decodeMsgFrame decodes a data-plane frame after its kind byte: the target
// shard and the mailbox message. A data batch's payload lands in a pooled
// buffer, which the receiving shard returns via codec.PutBuf exactly like a
// locally staged frame.
func decodeMsgFrame(kind byte, body []byte) (gsid int, msg message, err error) {
	w := codec.Wire{B: body, Reading: true}
	w.Int(&gsid, maxWireNodes)
	switch kind {
	case frData:
		m := dataBatchMsg{encoded: codec.GetBuf()}
		if m.wire(&w); w.Done() != nil {
			codec.PutBuf(m.encoded)
		}
		msg = m
	case frBarrier:
		var m barrierMsg
		m.wire(&w)
		msg = m
	case frState:
		var m stateMsg
		m.wire(&w)
		msg = m
	case frMigrateOut:
		var m migrateOutMsg
		m.wire(&w)
		msg = m
	case frRecover:
		var m recoverMsg
		m.wire(&w)
		msg = m
	default:
		return gsid, nil, fmt.Errorf("engine: unknown message frame kind %d", kind)
	}
	if err := w.Done(); err != nil {
		return gsid, nil, fmt.Errorf("engine: message frame kind %d: %w", kind, err)
	}
	return gsid, msg, nil
}

// --- arm -----------------------------------------------------------------

// armFrame arms one worker for a period: the installed allocation (the
// worker rebuilds the identical router table), barrier requirements and the
// key groups arriving by state transfer onto this worker's nodes.
type armFrame struct {
	period      int
	numNodes    int
	alloc       []int
	barrierNeed []int
	awaitIn     []int
}

func (a *armFrame) wire(w *codec.Wire) {
	w.Int(&a.period, maxWireSeq)
	w.Int(&a.numNodes, maxWireNodes)
	w.Ints(&a.alloc, maxWireGroups, maxWireNodes)
	w.Ints(&a.barrierNeed, maxWireNodes, maxWireGroups)
	w.Ints(&a.awaitIn, maxWireGroups, maxWireGroups)
}

// --- events --------------------------------------------------------------

func (ev *engEvent) wire(w *codec.Wire) {
	w.Int(&ev.kind, evError)
	w.Int(&ev.node, maxWireNodes)
	w.Int(&ev.op, maxWireNodes)
	w.Int(&ev.bytes, maxWireBlob)
	w.Bool(&ev.delta)
	w.Int(&ev.base, maxWireBlob)
	errText(w, &ev.err)
}

// errText carries an error as its text, cut to maxWireErr bytes ("" is nil).
func errText(w *codec.Wire, err *error) {
	var s string
	if !w.Reading && *err != nil {
		s = (*err).Error()
		s = s[:min(len(s), maxWireErr)]
	}
	w.String(&s, maxWireErr)
	if w.Reading && s != "" {
		*err = errors.New(s)
	}
}

// --- requests ------------------------------------------------------------

// reqFrame is one control-plane request from the controller; the reply
// carries the same id. Bodies are kind-specific.
type reqFrame struct {
	id      int
	kind    byte
	version int // rqStats / rqCkpt: the period being measured/checkpointed
	node    int // rqTerminate / rqFail

	// rqProvision: new node slots (parallel slices) and their owning peer.
	provIDs   []int
	provOwner []int
}

func (q *reqFrame) wire(w *codec.Wire) {
	w.Int(&q.id, maxWireSeq)
	w.Byte(&q.kind)
	switch q.kind {
	case rqStats, rqCkpt:
		w.Int(&q.version, maxWireSeq)
	case rqTerminate, rqFail:
		w.Int(&q.node, maxWireNodes)
	case rqCkptWrite:
	case rqProvision:
		n := w.Count(len(q.provIDs), maxWireNodes)
		for i := 0; i < n && w.Err == nil; i++ {
			w.Int(codec.Elem(w, &q.provIDs, i), maxWireNodes)
			w.Int(codec.Elem(w, &q.provOwner, i), maxWireNodes)
		}
	default:
		w.Fail(fmt.Errorf("engine: unknown request kind %d", q.kind))
	}
}

// replyFrame answers request id; the body's form is the request kind's. The
// controller reads the id alone (netRig.handleReply) and the body where the
// request was made.
type replyFrame struct {
	id   int
	body wireMsg
}

func (r *replyFrame) wire(w *codec.Wire) {
	w.Int(&r.id, maxWireSeq)
	r.body.wire(w)
}

func encodeByeFrame() []byte { return append(codec.GetBuf(), frBye) }

// --- reply bodies --------------------------------------------------------

// milli carries the non-zero entries of a dense milli-unit slice, as a count
// and (index, value) pairs; a reader adds them into m, whose length bounds
// the index.
func milli(w *codec.Wire, m []int64) {
	n := 0
	if !w.Reading {
		for _, v := range m {
			if v != 0 {
				n++
			}
		}
	}
	n = w.Count(n, maxWireGroups)
	for i, idx := 0, 0; i < n && w.Err == nil; i, idx = i+1, idx+1 {
		for !w.Reading && m[idx] == 0 {
			idx++
		}
		if w.Int(&idx, len(m)-1); w.Err == nil {
			w.Add(&m[idx])
		}
	}
}

// statsReply answers rqStats with a worker's barrier fold (Engine.foldLocal):
// the accumulator, each hosted group's state size and tip delta in shard
// order, and to the end of the body the communication triples (from, to, count)
// the fold handed out — which a writer has encoded into edges by then. All
// load values are integer milli-units, making the controller's sum exact and
// order-independent — the property the in-memory vs TCP equivalence tests pin
// down to the last bit. A reader adds everything to the controller's own fold
// (mergeAcc.addReply): sums into acc, the per-group readings into stateBytes
// and ckptDelta, triples into comm. The topology bounds every group id a
// reader takes, of a reading and of a triple alike: it is less than
// len(stateBytes).
type statsReply struct {
	acc                   *mergeAcc
	groups                []liveGroup
	edges                 []byte
	stateBytes, ckptDelta []int
	comm                  *core.CommBuilder
}

func (s *statsReply) wire(w *codec.Wire) {
	milli(w, s.acc.groupMilli)
	milli(w, s.acc.nodeMilli)
	w.Add(&s.acc.tuplesIn)
	w.Add(&s.acc.tuplesOut)
	w.Add(&s.acc.bytesOut)
	w.Add(&s.acc.bytesIn)
	w.Add(&s.acc.batchesOut)
	n := w.Count(len(s.groups), maxWireGroups)
	for i := 0; i < n && w.Err == nil; i++ {
		var g liveGroup
		if !w.Reading {
			g = s.groups[i]
		}
		w.Int(&g.gid, len(s.stateBytes)-1)
		w.Int(&g.size, maxWireBlob)
		w.Signed(&g.delta, maxWireBlob)
		if w.Reading && w.Err == nil {
			s.stateBytes[g.gid], s.ckptDelta[g.gid] = g.size, g.delta
		}
	}
	if !w.Reading {
		w.B = append(w.B, s.edges...)
	}
	for w.Reading && len(w.B) > 0 && w.Err == nil {
		var from, to int
		var c int64
		if commEdge(w, &from, &to, &c, len(s.stateBytes)-1); w.Err == nil {
			s.comm.Add(from, to, float64(c))
		}
	}
}

// commEdge carries one communication triple of a stats reply; a reader takes
// group ids of at most maxGID.
func commEdge(w *codec.Wire, from, to *int, n *int64, maxGID int) {
	w.Int(from, maxGID)
	w.Int(to, maxGID)
	w.Add(n)
}

// addReply adds a worker's stats reply to the controller's own fold.
func (a *mergeAcc) addReply(body []byte, comm *core.CommBuilder, stateBytes, ckptDelta []int) error {
	return decode(body, &statsReply{acc: a, stateBytes: stateBytes, ckptDelta: ckptDelta, comm: comm})
}

// ckptEntryWire is one key group's step of one checkpoint, as the process
// holding the group's tip took it (Engine.cutCheckpoint): cut is what Tip.Cut
// reported as cut (what CheckpointStats.NewBytes counts) and size the exact
// length of the payload the write encodes (cut, or the tip's size where the
// tip's chain did not take the delta). tip and d are the cut's and never cross
// a wire: the tip it brought up to date and the group's delta (StepDelta),
// which the write encodes from.
type ckptEntryWire struct {
	gid       int
	step      statestore.Step
	cut, size int
	payload   []byte
	tip       *statestore.Tip
	d         *statestore.Delta
}

// ckptSummary answers rqCkpt with a worker's cut: gid, step and sizes of every
// entry.
type ckptSummary []ckptEntryWire

func (s *ckptSummary) wire(w *codec.Wire) {
	n := w.Count(len(*s), maxWireGroups)
	for i := 0; i < n && w.Err == nil; i++ {
		e := codec.Elem(w, s, i)
		w.Int(&e.gid, maxWireGroups)
		step := int(e.step)
		w.Int(&step, int(statestore.StepBase))
		e.step = statestore.Step(step)
		w.Int(&e.cut, maxWireBlob)
		w.Int(&e.size, maxWireBlob)
	}
}

// ckptPayloads answers rqCkptWrite with every entry's payload, in the
// summary's order. A reader fills in the entries of the summary it follows,
// which the reply must match entry for entry — the same gids and a payload of
// each entry's size — and copies each payload out: the store keeps it as long
// as its chain lasts, and a slice of the frame would keep all of it alive.
type ckptPayloads []ckptEntryWire

func (p ckptPayloads) wire(w *codec.Wire) {
	if n := w.Count(len(p), maxWireGroups); n != len(p) {
		w.Fail(fmt.Errorf("engine: wire ckpt payloads for %d groups, the summary has %d", n, len(p)))
	}
	for i := 0; i < len(p) && w.Err == nil; i++ {
		e, gid := &p[i], p[i].gid
		w.Int(&gid, maxWireGroups)
		w.Blob(&e.payload, maxWireBlob)
		if w.Err == nil && (gid != e.gid || len(e.payload) != e.size) {
			w.Fail(fmt.Errorf("engine: wire ckpt payload for group %d (%d B) where the summary has group %d (%d B)",
				gid, len(e.payload), e.gid, e.size))
		}
	}
}

// okReply answers the requests that only succeed or fail.
type okReply struct{ err error }

func (r *okReply) wire(w *codec.Wire) { errText(w, &r.err) }
