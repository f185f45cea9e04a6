package engine

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/statestore"
)

// owned copies a pooled frame out and returns the buffer.
func owned(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	codec.PutBuf(frame)
	return out
}

// statsForm is a stats reply read into a controller's fold of 8 groups on 3
// nodes; written() is what the worker that sent that fold would write.
type statsForm struct{ statsReply }

func newStatsForm() *statsForm {
	const groups = 8
	s := &statsForm{statsReply{acc: &mergeAcc{}, stateBytes: make([]int, groups), ckptDelta: make([]int, groups), comm: &core.CommBuilder{}}}
	s.acc.reset(groups, 3)
	for gid := range s.stateBytes {
		s.stateBytes[gid] = -1 // not in the reply
	}
	s.comm.Reset(groups)
	return s
}

func (s *statsForm) written() *statsReply {
	out := &statsReply{acc: s.acc}
	for gid, size := range s.stateBytes {
		if size >= 0 {
			out.groups = append(out.groups, liveGroup{gid: gid, size: size, delta: s.ckptDelta[gid]})
		}
	}
	edges := codec.Wire{}
	s.comm.Build().ForEach(func(from, to int, rate float64) {
		c := int64(rate)
		commEdge(&edges, &from, &to, &c)
	})
	out.edges = edges.B
	return out
}

// ckptForm is a checkpoint's two replies back to back: the summary, then the
// payloads that must match it.
type ckptForm struct{ s ckptSummary }

func (c *ckptForm) wire(w *codec.Wire) {
	c.s.wire(w)
	ckptPayloads(c.s).wire(w)
}

// decodeControlFrame decodes a raw frame — the exposure a distributed engine
// has to a corrupt or hostile peer once the transport hands it a frame — as
// every message it may carry, a reply's body as every body a request may be
// answered with, and returns the frame re-encoded from each decoding that
// succeeded.
func decodeControlFrame(data []byte) (again [][]byte) {
	if len(data) == 0 {
		return nil
	}
	kind, body := data[0], data[1:]
	reencode := func(m wireMsg) {
		if decode(body, m) == nil {
			again = append(again, owned(encode(kind, m)))
		}
	}
	switch kind {
	case frData, frBarrier, frState, frMigrateOut, frPrecopy, frRecover:
		if gsid, msg, err := decodeMsgFrame(kind, body); err == nil {
			again = append(again, owned(encodeMsgFrame(gsid, msg)))
			if m, ok := msg.(dataBatchMsg); ok {
				codec.PutBuf(m.encoded)
			}
		}
	case frArm:
		reencode(&armFrame{})
	case frEvent:
		reencode(&engEvent{})
	case frReq:
		reencode(&reqFrame{})
	case frReply:
		w := codec.Wire{B: body, Reading: true}
		var id int
		if w.Int(&id, maxWireSeq); w.Err != nil {
			return nil
		}
		for _, m := range []wireMsg{newStatsForm(), &progressReply{}, make(subReply, 8), &okReply{}, &ckptForm{}} {
			if decode(w.B, m) != nil {
				continue
			}
			if s, ok := m.(*statsForm); ok {
				m = s.written()
			}
			again = append(again, owned(encode(frReply, &replyFrame{id: id, body: m})))
		}
	case frBye:
		if len(body) == 0 {
			again = append(again, owned(encodeByeFrame()))
		}
	}
	return again
}

// FuzzControlFrame fuzzes the worker/controller decoders through their single
// raw-bytes entry point, decodeControlFrame. Laws:
//
//  1. no decoder panics or allocates unboundedly (the maxWire* hardening
//     bounds), whatever the bytes;
//  2. decode∘encode is the identity on decoded values, for every frame kind
//     and every reply body: a frame re-encoded from what was decoded decodes
//     and re-encodes to itself, so no field is written one way and read
//     another.
func FuzzControlFrame(f *testing.F) {
	// One well-formed seed per frame kind, straight from the real encoders.
	var ob outbox
	ob.stage(2, (&Tuple{Key: "k", TS: 1}).WithNum("v", 3))
	if m, ok := ob.take(1); ok {
		m.op, m.period, m.count = 1, 2, 1
		f.Add(owned(encodeMsgFrame(5, m)))
	}
	f.Add(owned(encodeMsgFrame(3, barrierMsg{op: 1, period: 2})))
	f.Add(owned(encodeMsgFrame(3, barrierMsg{op: 1, period: 2, more: true}))) // closes a segment, not the period
	f.Add(owned(encodeMsgFrame(3, stateMsg{op: 1, kg: 2, encoded: []byte("st"), delta: true, baseVer: 4})))
	f.Add(owned(encodeMsgFrame(3, migrateOutMsg{op: 1, kg: 2, dest: 0, deltaBase: -1})))
	f.Add(owned(encodeMsgFrame(3, precopyMsg{op: 1, kg: 2, version: 3, total: 10, off: 5, chunk: []byte("chunk")})))
	f.Add(owned(encodeMsgFrame(3, precopyMsg{op: 1, kg: 2, discard: true})))
	f.Add(owned(encodeMsgFrame(3, recoverMsg{op: 1, kg: 2, encoded: []byte("enc"), tipVer: 7})))
	f.Add(owned(encode(frArm, &armFrame{period: 3, numNodes: 2, alloc: []int{0, 1, 0}, barrierNeed: []int{2, 2}, awaitIn: []int{1}})))
	f.Add(owned(encode(frArm, &armFrame{period: 3, resume: true, numNodes: 2, alloc: []int{0, 0, 0}, barrierNeed: []int{2, 2}, awaitIn: []int{1}}))) // the next segment of a running period
	f.Add(owned(encode(frEvent, &engEvent{kind: evMigrated, node: 1, op: 2, bytes: 3, delta: true, gid: 4})))
	f.Add(owned(encode(frReq, &reqFrame{id: 7, kind: rqStats})))
	f.Add(owned(encode(frReq, &reqFrame{id: 8, kind: rqProvision, provIDs: []int{3}, provOwner: []int{1}, provW: []float64{1.5}})))
	f.Add(owned(encode(frReply, &replyFrame{id: 7, body: &okReply{}})))
	f.Add(owned(encodeByeFrame()))
	// Malformed shapes: empty, unknown kind, truncations, absurd counts.
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{frArm})
	f.Add([]byte{frData, 0x80})
	f.Add(append([]byte{frState}, codec.AppendUvarint(nil, 1<<40)...))
	f.Add(append([]byte{frArm}, codec.AppendUvarint(codec.AppendUvarint(nil, 1), 1<<30)...))
	// A checkpoint and its pre-copies: a forward request to a source (and its
	// discard), the cut with its directives, the write's request, and the two
	// replies back to back — whole, lying about their count, and cut short.
	f.Add(owned(encodeMsgFrame(3, precopyMsg{op: 1, kg: 2, version: 3, total: 10, off: 4, forward: true, dest: 2, n: 6})))
	f.Add(owned(encodeMsgFrame(3, precopyMsg{op: 1, kg: 2, discard: true, forward: true, dest: 1})))
	f.Add(owned(encode(frReq, &reqFrame{id: 9, kind: rqCkpt, version: 4, dirs: []ckptDirective{{gid: 1, bound: -1}, {gid: 5, bound: 300}}})))
	f.Add(owned(encode(frReq, &reqFrame{id: 9, kind: rqCkpt, version: 4, dirs: []ckptDirective{{gid: 5, bound: 3}, {gid: 1, bound: 3}}}))) // out of order
	f.Add(owned(encode(frReq, &reqFrame{id: 10, kind: rqCkptWrite})))
	entries := []ckptEntryWire{
		{node: 1, gid: 2, step: statestore.StepBase, cut: 5, size: 5, tipSize: 5, payload: []byte("state")},
		{node: 1, gid: 4, step: statestore.StepDelta, cut: 3, size: 3, tipSize: 9, payload: []byte("dlt")},
		{node: 2, gid: 7, step: statestore.StepNone, tipSize: 9},
	}
	ckpt := owned(encode(frReply, &replyFrame{id: 9, body: &ckptForm{entries}}))
	f.Add(ckpt)
	lying := append([]byte(nil), ckpt...)
	lying[2] = 7 // the summary's count: more entries than follow
	f.Add(lying)
	f.Add(ckpt[:len(ckpt)-2])
	// Every other request kind, and every other reply body.
	for _, q := range []reqFrame{{id: 11, kind: rqProgress}, {id: 12, kind: rqSub}, {id: 13, kind: rqTerminate, node: 2}, {id: 14, kind: rqFail, node: 3}} {
		f.Add(owned(encode(frReq, &q)))
	}
	stats := goldenStats()
	for _, body := range []wireMsg{stats, &progressReply{12345}, subReply{0, 7, 0, 300}, &okReply{errors.New("nope")}} {
		f.Add(owned(encode(frReply, &replyFrame{id: 7, body: body})))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, once := range decodeControlFrame(data) {
			again := decodeControlFrame(once)
			if !slices.ContainsFunc(again, func(b []byte) bool { return bytes.Equal(b, once) }) {
				t.Fatalf("%x decodes and re-encodes as %x, which re-encodes as %x", data, once, again)
			}
		}
	})
}
