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
		commEdge(&edges, &from, &to, &c, maxWireGroups)
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
	case frData, frBarrier, frState, frMigrateOut, frRecover:
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
		for _, m := range []wireMsg{newStatsForm(), &okReply{}, &ckptForm{}} {
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
	f.Add(append(owned(encodeMsgFrame(3, barrierMsg{op: 1, period: 2})), 1)) // a v7 barrier: its segment flag trails
	f.Add(owned(encodeMsgFrame(3, stateMsg{op: 1, kg: 2, encoded: []byte("st"), delta: true, baseVer: 4})))
	f.Add(owned(encodeMsgFrame(3, migrateOutMsg{op: 1, kg: 2, dest: 0})))
	f.Add(owned(encodeMsgFrame(3, recoverMsg{op: 1, kg: 2, encoded: []byte("enc"), tipVer: 7})))
	f.Add(owned(encode(frArm, &armFrame{period: 3, numNodes: 2, alloc: []int{0, 1, 0}, barrierNeed: []int{2, 2}, awaitIn: []int{1}})))
	f.Add([]byte{frArm, 3, 1, 2, 3, 0, 0, 0, 2, 2, 2, 1, 1}) // a v7 arm frame: its resume flag after the period
	f.Add(owned(encode(frEvent, &engEvent{kind: evMigrated, node: 1, op: 2, bytes: 3, delta: true, base: 4})))
	f.Add(owned(encode(frReq, &reqFrame{id: 7, kind: rqStats})))
	f.Add(owned(encode(frReq, &reqFrame{id: 8, kind: rqProvision, provIDs: []int{3}, provOwner: []int{1}})))
	f.Add([]byte{frReq, 8, rqProvision, 1, 3, 1, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f}) // a v8 provision: a weight after the owner
	f.Add(owned(encode(frReply, &replyFrame{id: 7, body: &okReply{}})))
	f.Add(owned(encodeByeFrame()))
	// Malformed shapes: empty, unknown kind, truncations, absurd counts.
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{frArm})
	f.Add([]byte{frData, 0x80})
	f.Add(append([]byte{frState}, codec.AppendUvarint(nil, 1<<40)...))
	f.Add(append([]byte{frArm}, codec.AppendUvarint(codec.AppendUvarint(nil, 1), 1<<30)...))
	// A checkpoint and the move it assists: a delta transfer carrying its base
	// (whole, cut short inside the base, and with a base longer than any
	// frame), a whole state that carries one anyway, the cut (and a v9 cut,
	// whose per-group bounds trail the version), the write's request, and the
	// two replies back to back —
	// whole, lying about their count, and cut short.
	moved := owned(encodeMsgFrame(3, stateMsg{op: 1, kg: 2, encoded: []byte("dl"), delta: true, baseVer: 4, chain: statestore.Chain{Base: 300, Deltas: 2, DeltaBytes: 40}, base: []byte("tip")}))
	f.Add(moved)
	f.Add(moved[:len(moved)-2])
	noBase := owned(encodeMsgFrame(3, stateMsg{op: 1, kg: 2, encoded: []byte("dl"), delta: true, baseVer: 4}))
	f.Add(codec.AppendUvarint(noBase[:len(noBase)-1], 1<<40))
	f.Add(owned(encodeMsgFrame(3, stateMsg{op: 1, kg: 2, encoded: []byte("st"), base: []byte("tip")})))
	f.Add(owned(encode(frReq, &reqFrame{id: 9, kind: rqCkpt, version: 4})))
	f.Add(append(owned(encode(frReq, &reqFrame{id: 9, kind: rqCkpt, version: 4})), 2, 1, 0, 5, 0xad, 2))
	f.Add(owned(encode(frReq, &reqFrame{id: 10, kind: rqCkptWrite})))
	entries := []ckptEntryWire{
		{gid: 2, step: statestore.StepBase, cut: 5, size: 5, payload: []byte("state")},
		{gid: 4, step: statestore.StepDelta, cut: 3, size: 3, payload: []byte("dlt")},
		{gid: 7, step: statestore.StepNone},
	}
	ckpt := owned(encode(frReply, &replyFrame{id: 9, body: &ckptForm{entries}}))
	f.Add(ckpt)
	lying := append([]byte(nil), ckpt...)
	lying[2] = 7 // the summary's count: more entries than follow
	f.Add(lying)
	f.Add(ckpt[:len(ckpt)-2])
	// Every other request kind, and every other reply body.
	for _, q := range []reqFrame{{id: 13, kind: rqTerminate, node: 2}, {id: 14, kind: rqFail, node: 3}} {
		f.Add(owned(encode(frReq, &q)))
	}
	stats := goldenStats()
	for _, body := range []wireMsg{stats, &okReply{errors.New("nope")}} {
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
