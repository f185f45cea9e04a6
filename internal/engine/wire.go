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
// transfers, pre-copy chunks) map 1:1 onto the mailbox message
// types of mailbox.go — a remote deliver encodes the message here, the
// receiving process's dispatch loop decodes it and puts the identical
// message into the owning shard's mailbox, so shard code cannot tell local
// from remote senders. Control-plane frames (arm, events, request/reply)
// implement the controller↔worker protocol of net.go.
//
// Every frame is [kind byte][fields]; integers are uvarints (a -1 sentinel
// is shifted by +1), strings and byte blobs are length-prefixed. Decoders
// validate lengths and counts against hard bounds — these frames arrive
// from the network, so FuzzControlFrame hammers exactly this surface.

const (
	frData byte = iota + 1
	frBarrier
	frState
	frMigrateOut
	frPrecopy
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
	rqProgress
	rqSub
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
)

func appendInt(dst []byte, v int) []byte { return codec.AppendUvarint(dst, uint64(v)) }

// appendSigned encodes v >= -1 as uvarint(v+1).
func appendSigned(dst []byte, v int) []byte { return codec.AppendUvarint(dst, uint64(v+1)) }

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendBlob(dst, blob []byte) []byte {
	dst = codec.AppendUvarint(dst, uint64(len(blob)))
	return append(dst, blob...)
}

type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) int(what string, max uint64) int {
	if r.err != nil {
		return 0
	}
	v, rest, err := codec.ReadUvarint(r.b)
	if err != nil {
		r.err = fmt.Errorf("engine: wire %s: %w", what, err)
		return 0
	}
	if v > max {
		r.err = fmt.Errorf("engine: wire %s %d out of range", what, v)
		return 0
	}
	r.b = rest
	return int(v)
}

func (r *wireReader) signed(what string, max uint64) int { return r.int(what, max+1) - 1 }

func (r *wireReader) i64(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, rest, err := codec.ReadUvarint(r.b)
	if err != nil {
		r.err = fmt.Errorf("engine: wire %s: %w", what, err)
		return 0
	}
	r.b = rest
	return int64(v)
}

func (r *wireReader) bool(what string) bool {
	if r.err != nil {
		return false
	}
	if len(r.b) < 1 {
		r.err = fmt.Errorf("engine: wire %s: truncated bool", what)
		return false
	}
	v := r.b[0]
	r.b = r.b[1:]
	if v > 1 {
		r.err = fmt.Errorf("engine: wire %s: bool byte 0x%02x", what, v)
		return false
	}
	return v == 1
}

// blob returns a copy of a length-prefixed byte blob (frames are pooled
// buffers; decoded messages outlive them).
func (r *wireReader) blob(what string) []byte {
	if r.err != nil {
		return nil
	}
	n := r.int(what+" length", maxWireBlob)
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = fmt.Errorf("engine: wire %s: %d of %d bytes", what, len(r.b), n)
		return nil
	}
	out := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return out
}

func (r *wireReader) done(what string) error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("engine: wire %s: %d trailing bytes", what, len(r.b))
	}
	return nil
}

// --- data-plane messages -------------------------------------------------

// encodeMsgFrame encodes one mailbox message for remote shard gsid into a
// pooled buffer. Messages that never cross processes (periodStartMsg — the
// arm frame replaces it — and stopMsg) are a programming error here.
func encodeMsgFrame(gsid int, msg message) []byte {
	b := codec.GetBuf()
	switch m := msg.(type) {
	case dataBatchMsg:
		b = append(b, frData)
		b = appendInt(b, gsid)
		b = appendInt(b, m.op)
		b = appendInt(b, m.period)
		b = appendInt(b, m.count)
		b = appendBlob(b, m.encoded)
	case barrierMsg:
		b = append(b, frBarrier)
		b = appendInt(b, gsid)
		b = appendInt(b, m.op)
		b = appendInt(b, m.period)
		b = appendBool(b, m.more)
	case stateMsg:
		b = append(b, frState)
		b = appendInt(b, gsid)
		b = appendInt(b, m.op)
		b = appendInt(b, m.kg)
		b = appendBool(b, m.delta)
		b = appendSigned(b, m.baseVer)
		b = appendBlob(b, m.encoded)
	case migrateOutMsg:
		b = append(b, frMigrateOut)
		b = appendInt(b, gsid)
		b = appendInt(b, m.op)
		b = appendInt(b, m.kg)
		b = appendInt(b, m.dest)
		b = appendSigned(b, m.deltaBase)
	case precopyMsg:
		b = append(b, frPrecopy)
		b = appendInt(b, gsid)
		b = appendInt(b, m.op)
		b = appendInt(b, m.kg)
		b = appendInt(b, m.version)
		b = appendInt(b, m.total)
		b = appendInt(b, m.off)
		b = appendBool(b, m.discard)
		b = appendBool(b, m.forward)
		b = appendInt(b, m.dest)
		b = appendInt(b, m.n)
		b = appendBlob(b, m.chunk)
	case recoverMsg:
		b = append(b, frRecover)
		b = appendInt(b, gsid)
		b = appendInt(b, m.op)
		b = appendInt(b, m.kg)
		b = appendSigned(b, m.tipVer)
		b = appendBlob(b, m.encoded)
	default:
		panic(fmt.Sprintf("engine: message %T cannot cross processes", msg))
	}
	return b
}

// decodedMsg is one decoded data-plane frame: the target shard and the
// mailbox message.
type decodedMsg struct {
	gsid    int
	msg     message
	dataBuf bool // msg is a dataBatchMsg whose encoded buffer is pooled
}

func decodeMsgFrame(kind byte, body []byte) (decodedMsg, error) {
	r := &wireReader{b: body}
	var d decodedMsg
	d.gsid = r.int("gsid", maxWireNodes)
	switch kind {
	case frData:
		m := dataBatchMsg{}
		m.op = r.int("op", maxWireNodes)
		m.period = r.int("period", 1<<40)
		m.count = r.int("count", maxWireBlob)
		if r.err == nil {
			n := r.int("payload length", maxWireBlob)
			if r.err == nil {
				if len(r.b) != n {
					r.err = fmt.Errorf("engine: wire data payload: %d of %d bytes", len(r.b), n)
				} else {
					// The payload lands in a pooled buffer: the receiving
					// shard returns it via codec.PutBuf exactly like a
					// locally staged frame.
					buf := codec.GetBuf()
					m.encoded = append(buf, r.b...)
					r.b = nil
					d.dataBuf = true
				}
			}
		}
		d.msg = m
		if r.err != nil {
			return d, r.err
		}
		return d, nil
	case frBarrier:
		m := barrierMsg{}
		m.op = r.int("op", maxWireNodes)
		m.period = r.int("period", 1<<40)
		m.more = r.bool("more")
		d.msg = m
	case frState:
		m := stateMsg{}
		m.op = r.int("op", maxWireNodes)
		m.kg = r.int("kg", maxWireGroups)
		m.delta = r.bool("delta")
		m.baseVer = r.signed("baseVer", 1<<40)
		m.encoded = r.blob("state")
		d.msg = m
	case frMigrateOut:
		m := migrateOutMsg{}
		m.op = r.int("op", maxWireNodes)
		m.kg = r.int("kg", maxWireGroups)
		m.dest = r.int("dest", maxWireNodes)
		m.deltaBase = r.signed("deltaBase", 1<<40)
		d.msg = m
	case frPrecopy:
		m := precopyMsg{}
		m.op = r.int("op", maxWireNodes)
		m.kg = r.int("kg", maxWireGroups)
		m.version = r.int("version", 1<<40)
		m.total = r.int("total", maxWireBlob)
		m.off = r.int("off", maxWireBlob)
		m.discard = r.bool("discard")
		m.forward = r.bool("forward")
		m.dest = r.int("dest", maxWireNodes)
		m.n = r.int("n", maxWireBlob)
		m.chunk = r.blob("chunk")
		d.msg = m
	case frRecover:
		m := recoverMsg{}
		m.op = r.int("op", maxWireNodes)
		m.kg = r.int("kg", maxWireGroups)
		m.tipVer = r.signed("tipVer", 1<<40)
		m.encoded = r.blob("state")
		d.msg = m
	default:
		return d, fmt.Errorf("engine: unknown message frame kind %d", kind)
	}
	if err := r.done("message frame"); err != nil {
		return d, err
	}
	return d, nil
}

// --- arm -----------------------------------------------------------------

// armFrame arms one worker for a period, or — resume — for the next segment
// of the running one: the installed allocation (the worker rebuilds the
// identical router table), barrier requirements and the key groups arriving
// by state transfer onto this worker's nodes.
type armFrame struct {
	period      int
	resume      bool
	numNodes    int
	alloc       []int
	barrierNeed []int
	awaitIn     []int
}

func encodeArmFrame(a armFrame) []byte {
	b := codec.GetBuf()
	b = append(b, frArm)
	b = appendInt(b, a.period)
	b = appendBool(b, a.resume)
	b = appendInt(b, a.numNodes)
	b = appendInt(b, len(a.alloc))
	for _, n := range a.alloc {
		b = appendInt(b, n)
	}
	b = appendInt(b, len(a.barrierNeed))
	for _, n := range a.barrierNeed {
		b = appendInt(b, n)
	}
	b = appendInt(b, len(a.awaitIn))
	for _, g := range a.awaitIn {
		b = appendInt(b, g)
	}
	return b
}

func decodeArmFrame(body []byte) (armFrame, error) {
	r := &wireReader{b: body}
	var a armFrame
	a.period = r.int("arm period", 1<<40)
	a.resume = r.bool("arm resume")
	a.numNodes = r.int("arm numNodes", maxWireNodes)
	n := r.int("arm alloc count", maxWireGroups)
	for i := 0; i < n && r.err == nil; i++ {
		a.alloc = append(a.alloc, r.int("arm alloc", maxWireNodes))
	}
	n = r.int("arm op count", maxWireNodes)
	for i := 0; i < n && r.err == nil; i++ {
		a.barrierNeed = append(a.barrierNeed, r.int("arm barrier need", maxWireGroups))
	}
	n = r.int("arm awaitIn count", maxWireGroups)
	for i := 0; i < n && r.err == nil; i++ {
		a.awaitIn = append(a.awaitIn, r.int("arm awaitIn gid", maxWireGroups))
	}
	return a, r.done("arm frame")
}

// --- events --------------------------------------------------------------

func encodeEventFrame(ev engEvent) []byte {
	b := codec.GetBuf()
	b = append(b, frEvent)
	b = appendInt(b, ev.kind)
	b = appendInt(b, ev.node)
	b = appendInt(b, ev.op)
	b = appendInt(b, ev.bytes)
	b = appendBool(b, ev.delta)
	b = appendSigned(b, ev.gid)
	msg := ""
	if ev.err != nil {
		msg = ev.err.Error()
		if len(msg) > maxWireErr {
			msg = msg[:maxWireErr]
		}
	}
	b = codec.AppendString(b, msg)
	return b
}

func decodeEventFrame(body []byte) (engEvent, error) {
	r := &wireReader{b: body}
	var ev engEvent
	ev.kind = r.int("event kind", 16)
	ev.node = r.int("event node", maxWireNodes)
	ev.op = r.int("event op", maxWireNodes)
	ev.bytes = r.int("event bytes", maxWireBlob)
	ev.delta = r.bool("event delta")
	ev.gid = r.signed("event gid", maxWireGroups)
	if r.err == nil {
		msg, rest, err := codec.ReadString(r.b)
		if err != nil {
			r.err = fmt.Errorf("engine: wire event error: %w", err)
		} else {
			r.b = rest
			if len(msg) > maxWireErr {
				r.err = fmt.Errorf("engine: wire event error of %d bytes out of range", len(msg))
			} else if msg != "" {
				ev.err = errors.New(msg)
			}
		}
	}
	return ev, r.done("event frame")
}

// --- requests ------------------------------------------------------------

// reqFrame is one control-plane request from the controller; the reply
// carries the same id. Bodies are kind-specific.
type reqFrame struct {
	id      int
	kind    byte
	version int // rqStats / rqCkpt: the period being measured/checkpointed
	node    int // rqTerminate / rqFail

	// rqCkpt: what the store says about the peer's tracked groups, ascending
	// gid.
	dirs []ckptDirective

	// rqProvision: new node slots (parallel slices) and their owning peer.
	provIDs   []int
	provOwner []int
	provW     []float64
}

func encodeReqFrame(q reqFrame) []byte {
	b := codec.GetBuf()
	b = append(b, frReq)
	b = appendInt(b, q.id)
	b = append(b, q.kind)
	switch q.kind {
	case rqStats:
		b = appendInt(b, q.version)
	case rqCkpt:
		b = appendInt(b, q.version)
		b = appendInt(b, len(q.dirs))
		for _, d := range q.dirs {
			b = appendInt(b, d.gid)
			b = appendSigned(b, d.bound)
			b = appendBool(b, d.fold)
		}
	case rqTerminate, rqFail:
		b = appendInt(b, q.node)
	case rqProvision:
		b = appendInt(b, len(q.provIDs))
		for i := range q.provIDs {
			b = appendInt(b, q.provIDs[i])
			b = appendInt(b, q.provOwner[i])
			b = codec.AppendFloat64(b, q.provW[i])
		}
	}
	return b
}

func decodeReqFrame(body []byte) (reqFrame, error) {
	r := &wireReader{b: body}
	var q reqFrame
	q.id = r.int("req id", 1<<40)
	if r.err == nil {
		if len(r.b) < 1 {
			return q, fmt.Errorf("engine: wire req: truncated kind")
		}
		q.kind = r.b[0]
		r.b = r.b[1:]
	}
	switch q.kind {
	case rqStats:
		q.version = r.int("req version", 1<<40)
	case rqCkpt:
		q.version = r.int("req version", 1<<40)
		n := r.int("ckpt directive count", maxWireGroups)
		for i := 0; i < n && r.err == nil; i++ {
			d := ckptDirective{gid: r.int("ckpt directive gid", maxWireGroups)}
			d.bound = r.signed("ckpt fold bound", maxWireBlob)
			d.fold = r.bool("ckpt fold")
			if r.err == nil && i > 0 && d.gid <= q.dirs[i-1].gid {
				r.err = fmt.Errorf("engine: wire ckpt directive for group %d out of order", d.gid)
			}
			q.dirs = append(q.dirs, d)
		}
	case rqTerminate, rqFail:
		q.node = r.int("req node", maxWireNodes)
	case rqProgress, rqSub, rqCkptWrite:
	case rqProvision:
		n := r.int("provision count", maxWireNodes)
		for i := 0; i < n && r.err == nil; i++ {
			q.provIDs = append(q.provIDs, r.int("provision id", maxWireNodes))
			q.provOwner = append(q.provOwner, r.int("provision owner", maxWireNodes))
			if r.err == nil {
				w, rest, err := codec.ReadFloat64(r.b)
				if err != nil {
					r.err = err
				} else if !(w > 0) {
					r.err = fmt.Errorf("engine: wire provision weight %v", w)
				} else {
					r.b = rest
					q.provW = append(q.provW, w)
				}
			}
		}
	default:
		if r.err == nil {
			return q, fmt.Errorf("engine: unknown request kind %d", q.kind)
		}
	}
	return q, r.done("request frame")
}

// encodeReplyFrame wraps a reply body for request id.
func encodeReplyFrame(id int, body []byte) []byte {
	b := codec.GetBuf()
	b = append(b, frReply)
	b = appendInt(b, id)
	return append(b, body...)
}

func encodeByeFrame() []byte { return append(codec.GetBuf(), frBye) }

// --- reply bodies --------------------------------------------------------

// appendMilli ships the non-zero entries of a dense milli-unit slice, as a
// count and (index, value) pairs.
func appendMilli(b []byte, milli []int64) []byte {
	n := 0
	for _, m := range milli {
		if m != 0 {
			n++
		}
	}
	b = appendInt(b, n)
	for i, m := range milli {
		if m != 0 {
			b = appendInt(b, i)
			b = codec.AppendUvarint(b, uint64(m))
		}
	}
	return b
}

// addMilli adds what appendMilli shipped into dst; an index dst does not have
// fails the decode.
func (r *wireReader) addMilli(what string, dst []int64) {
	n := r.int(what+" count", maxWireGroups)
	for i := 0; i < n && r.err == nil; i++ {
		idx := r.int(what+" index", maxWireGroups)
		v := r.i64(what + " value")
		if r.err == nil && idx >= len(dst) {
			r.err = fmt.Errorf("engine: wire %s index %d out of range", what, idx)
		}
		if r.err == nil {
			dst[idx] += v
		}
	}
}

// encodeStatsReply ships a worker's barrier fold (Engine.foldLocal): the
// accumulator and each hosted group's state size and tip delta in ascending
// gid; the communication triples (from, to, count) the fold handed out follow
// to the end of the body. All load values are integer milli-units, making the
// controller's sum exact and order-independent — the property the in-memory
// vs TCP equivalence tests pin down to the last bit.
func encodeStatsReply(a *mergeAcc, groups []liveGroup) []byte {
	b := codec.GetBuf()
	b = appendMilli(b, a.groupMilli)
	b = appendMilli(b, a.nodeMilli)
	b = codec.AppendUvarint(b, uint64(a.tuplesIn))
	b = codec.AppendUvarint(b, uint64(a.tuplesOut))
	b = codec.AppendUvarint(b, uint64(a.bytesOut))
	b = codec.AppendUvarint(b, uint64(a.bytesIn))
	b = codec.AppendUvarint(b, uint64(a.batchesOut))
	b = appendInt(b, len(groups))
	for _, g := range groups {
		b = appendInt(b, g.gid)
		b = appendInt(b, g.size)
		b = appendSigned(b, g.delta)
	}
	return b
}

// addReply adds a worker's stats reply to the controller's own fold: sums into
// a, triples into comm, and the worker's per-group readings into stateBytes and
// ckptDelta (both indexed by gid).
func (a *mergeAcc) addReply(body []byte, comm *core.CommBuilder, stateBytes, ckptDelta []int) error {
	r := &wireReader{b: body}
	r.addMilli("stats groupMilli", a.groupMilli)
	r.addMilli("stats nodeMilli", a.nodeMilli)
	a.tuplesIn += r.i64("stats tuplesIn")
	a.tuplesOut += r.i64("stats tuplesOut")
	a.bytesOut += r.i64("stats bytesOut")
	a.bytesIn += r.i64("stats bytesIn")
	a.batchesOut += r.i64("stats batchesOut")
	n := r.int("stats group count", maxWireGroups)
	for i := 0; i < n && r.err == nil; i++ {
		gid := r.int("stats gid", maxWireGroups)
		size := r.int("stats state bytes", maxWireBlob)
		delta := r.signed("stats ckpt delta", maxWireBlob)
		if r.err == nil && gid >= len(stateBytes) {
			r.err = fmt.Errorf("engine: wire stats for unknown group %d", gid)
		}
		if r.err == nil {
			stateBytes[gid], ckptDelta[gid] = size, delta
		}
	}
	for len(r.b) > 0 && r.err == nil {
		from := r.int("stats comm from", maxWireGroups)
		to := r.int("stats comm to", maxWireGroups)
		if c := r.i64("stats comm n"); r.err == nil {
			comm.Add(from, to, float64(c))
		}
	}
	return r.done("stats reply")
}

// ckptDirective is what the controller's store says about one group's next
// checkpoint (rqCkpt): bound is the largest delta its chain takes without
// folding (statestore.Store.FoldBound; a larger one is written as a base), and
// fold asks the tip-holder to send its tip's encoding along, which the chain is
// folded into first — a pre-copy since the last checkpoint read that tip
// whole. A group without a directive has bound -1.
type ckptDirective struct {
	gid, bound int
	fold       bool
}

// ckptEntryWire is one key group's step of one checkpoint, as the process
// holding the group's tip took it (Engine.cutCheckpoint). The summary a worker
// answers rqCkpt with carries node, gid, step and the sizes: cut is what
// Tip.Cut returned (what CheckpointStats.NewBytes counts), size the exact
// length of the payload the write encodes (cut, or the tip's size where the
// chain's bound turned a delta into a base), tipSize the tip's after the cut
// and foldLen the length of fold. The reply to rqCkptWrite carries gid, payload
// and fold, the tip's encoding from before the cut where the directive asked
// for it. tip and d are the cut's and never cross a wire: the tip it brought up
// to date and the group's delta (StepDelta), which the write encodes from.
type ckptEntryWire struct {
	node, gid                   int
	step                        statestore.Step
	cut, size, tipSize, foldLen int
	payload, fold               []byte
	tip                         *statestore.Tip
	d                           *statestore.Delta
}

func encodeCkptSummary(entries []ckptEntryWire) []byte {
	b := codec.GetBuf()
	b = appendInt(b, len(entries))
	for _, e := range entries {
		b = appendInt(b, e.node)
		b = appendInt(b, e.gid)
		b = appendInt(b, int(e.step))
		b = appendInt(b, e.cut)
		b = appendInt(b, e.size)
		b = appendInt(b, e.tipSize)
		b = appendInt(b, e.foldLen)
	}
	return b
}

func decodeCkptSummary(body []byte) ([]ckptEntryWire, error) {
	r := &wireReader{b: body}
	n := r.int("ckpt entry count", maxWireGroups)
	var out []ckptEntryWire
	for i := 0; i < n && r.err == nil; i++ {
		var e ckptEntryWire
		e.node = r.int("ckpt node", maxWireNodes)
		e.gid = r.int("ckpt gid", maxWireGroups)
		e.step = statestore.Step(r.int("ckpt step", uint64(statestore.StepBase)))
		e.cut = r.int("ckpt cut", maxWireBlob)
		e.size = r.int("ckpt size", maxWireBlob)
		e.tipSize = r.int("ckpt tip size", maxWireBlob)
		e.foldLen = r.int("ckpt fold length", maxWireBlob)
		out = append(out, e)
	}
	return out, r.done("ckpt reply")
}

// appendCkptPayloads appends the reply to rqCkptWrite: every entry's payload
// and fold, in the summary's order.
func appendCkptPayloads(b []byte, entries []ckptEntryWire) []byte {
	b = appendInt(b, len(entries))
	for _, e := range entries {
		b = appendInt(b, e.gid)
		b = appendBlob(b, e.payload)
		b = appendBlob(b, e.fold)
	}
	return b
}

// decodeCkptPayloads reads the reply to rqCkptWrite into the entries of the
// summary it follows, which it must match entry for entry: the same gids, a
// payload of each entry's size and a fold of its foldLen. Each is copied out:
// the store keeps it as long as its chain lasts, and a slice of body would
// keep all of body alive with it.
func decodeCkptPayloads(body []byte, into []ckptEntryWire) error {
	r := &wireReader{b: body}
	if n := r.int("ckpt payload count", maxWireGroups); r.err == nil && n != len(into) {
		return fmt.Errorf("engine: wire ckpt payloads for %d groups, the summary has %d", n, len(into))
	}
	for i := 0; i < len(into) && r.err == nil; i++ {
		e := &into[i]
		gid := r.int("ckpt payload gid", maxWireGroups)
		e.payload = r.blob("ckpt payload")
		e.fold = r.blob("ckpt fold")
		if r.err == nil && (gid != e.gid || len(e.payload) != e.size || len(e.fold) != e.foldLen) {
			r.err = fmt.Errorf("engine: wire ckpt payload for group %d (%d + %d B) where the summary has group %d (%d + %d B)",
				gid, len(e.payload), len(e.fold), e.gid, e.size, e.foldLen)
		}
	}
	return r.done("ckpt payloads")
}

func encodeProgressReply(totalMilli int64) []byte {
	return codec.AppendUvarint(codec.GetBuf(), uint64(totalMilli))
}

func decodeProgressReply(body []byte) (int64, error) {
	r := &wireReader{b: body}
	v := r.i64("progress milli")
	return v, r.done("progress reply")
}

// encodeSubReply ships the non-zero entries of a dense per-group reading
// (nil when sub-periods are disabled).
func encodeSubReply(milli []int64) []byte { return appendMilli(codec.GetBuf(), milli) }

func decodeSubReply(body []byte, numGroups int) ([]int64, error) {
	r := &wireReader{b: body}
	milli := make([]int64, numGroups)
	r.addMilli("sub milli", milli)
	return milli, r.done("sub reply")
}

// encodeOKReply encodes the generic ack reply ("" = success).
func encodeOKReply(err error) []byte {
	msg := ""
	if err != nil {
		msg = err.Error()
		if len(msg) > maxWireErr {
			msg = msg[:maxWireErr]
		}
	}
	return codec.AppendString(codec.GetBuf(), msg)
}

func decodeOKReply(body []byte) error {
	msg, rest, err := codec.ReadString(body)
	if err != nil {
		return fmt.Errorf("engine: wire ok reply: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("engine: wire ok reply: %d trailing bytes", len(rest))
	}
	if len(msg) > maxWireErr {
		return fmt.Errorf("engine: wire ok reply of %d bytes out of range", len(msg))
	}
	if msg != "" {
		return errors.New(msg)
	}
	return nil
}

// decodeControlFrame exercises every decoder for a raw frame — the single
// entry point FuzzControlFrame drives. Returns the decoded form's kind (for
// fuzz interest) or an error.
func decodeControlFrame(data []byte) (byte, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("engine: empty control frame")
	}
	kind, body := data[0], data[1:]
	switch kind {
	case frData, frBarrier, frState, frMigrateOut, frPrecopy, frRecover:
		d, err := decodeMsgFrame(kind, body)
		if err != nil {
			return kind, err
		}
		if m, ok := d.msg.(dataBatchMsg); ok && d.dataBuf {
			codec.PutBuf(m.encoded)
		}
		return kind, nil
	case frArm:
		_, err := decodeArmFrame(body)
		return kind, err
	case frEvent:
		_, err := decodeEventFrame(body)
		return kind, err
	case frReq:
		_, err := decodeReqFrame(body)
		return kind, err
	case frReply:
		// The body's form depends on the request; a checkpoint's two replies
		// carry what the controller validates most.
		r := &wireReader{b: body}
		r.int("reply id", 1<<40)
		if r.err != nil {
			return kind, r.err
		}
		summary, err := decodeCkptSummary(r.b)
		return kind, errors.Join(err, decodeCkptPayloads(r.b, summary))
	case frBye:
		if len(body) != 0 {
			return kind, fmt.Errorf("engine: bye frame with %d body bytes", len(body))
		}
		return kind, nil
	}
	return kind, fmt.Errorf("engine: unknown control frame kind %d", kind)
}
