package engine

import (
	"bytes"
	"encoding/hex"
	"errors"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/statestore"
)

// goldenStats is a worker's stats reply: sparse milli sums, the five totals,
// two groups (one without a tip) and two communication triples.
func goldenStats() *statsReply {
	edges := codec.Wire{}
	for _, e := range [][3]int{{0, 1, 3}, {1, 3, 2}} {
		n := int64(e[2])
		commEdge(&edges, &e[0], &e[1], &n)
	}
	return &statsReply{
		acc:    &mergeAcc{groupMilli: []int64{0, 5, 0, 7}, nodeMilli: []int64{12, 0}, tuplesIn: 10, tuplesOut: 9, bytesOut: 100, bytesIn: 90, batchesOut: 4},
		groups: []liveGroup{{gid: 1, size: 30, delta: -1}, {gid: 3, size: 40, delta: 5}},
		edges:  edges.B,
	}
}

func goldenCkptEntries() []ckptEntryWire {
	return []ckptEntryWire{
		{node: 1, gid: 2, step: statestore.StepBase, cut: 5, size: 5, tipSize: 5, payload: []byte("state")},
		{node: 1, gid: 4, step: statestore.StepDelta, cut: 3, size: 3, tipSize: 9, payload: []byte("dlt")},
		{node: 2, gid: 7, step: statestore.StepNone, tipSize: 9},
	}
}

// TestControlSchemaGolden pins the control schema byte for byte: one frame
// per frame kind and per request kind, and every reply body, each checked
// against the bytes it had before every message was described once (by its
// wire method) and decoded back to the same frame.
//
// Three vectors were re-recorded when the checkpoint's fold was deleted (wire
// version 3), each shorter by the fold's field and nothing else: "req ckpt"
// lost a 00 fold flag after each directive, "ckpt summary" a 00 fold length
// after each entry, and "ckpt payloads" an empty fold blob (00) after each
// payload.
func TestControlSchemaGolden(t *testing.T) {
	body := func(m wireMsg) []byte {
		w := codec.Wire{}
		m.wire(&w)
		return w.B
	}
	entries := goldenCkptEntries()
	for _, v := range []struct {
		name  string
		frame bool // a whole frame, which decodes back; else a reply body
		b     []byte
		want  string
	}{
		{"data", true, encodeMsgFrame(5, dataBatchMsg{op: 1, period: 2, count: 3, encoded: []byte{0xF2, 0x01, 0x00}}), "010501020303f20100"},
		{"barrier", true, encodeMsgFrame(3, barrierMsg{op: 1, period: 2, more: true}), "0203010201"},
		{"state", true, encodeMsgFrame(3, stateMsg{op: 1, kg: 2, encoded: []byte("st"), delta: true, baseVer: 4}), "030301020105027374"},
		{"migrateOut", true, encodeMsgFrame(3, migrateOutMsg{op: 1, kg: 2, dest: 0, deltaBase: -1}), "040301020000"},
		{"precopy", true, encodeMsgFrame(3, precopyMsg{op: 1, kg: 2, version: 3, total: 10, off: 4, chunk: []byte("chunk"), forward: true, dest: 2, n: 6}), "05030102030a0400010206056368756e6b"},
		{"recover", true, encodeMsgFrame(3, recoverMsg{op: 1, kg: 2, encoded: []byte("enc"), tipVer: 7}), "060301020803656e63"},
		{"arm", true, encode(frArm, &armFrame{period: 3, resume: true, numNodes: 2, alloc: []int{0, 1, 0}, barrierNeed: []int{2, 2}, awaitIn: []int{1}}), "07030102030001000202020101"},
		{"event", true, encode(frEvent, &engEvent{kind: evError, node: 1, op: 2, bytes: 3, delta: true, gid: 4, err: errors.New("boom")}), "0803010203010504626f6f6d"},
		{"req stats", true, encode(frReq, &reqFrame{id: 7, kind: rqStats, version: 5}), "09070105"},
		{"req ckpt", true, encode(frReq, &reqFrame{id: 9, kind: rqCkpt, version: 4, dirs: []ckptDirective{{gid: 1, bound: -1}, {gid: 5, bound: 300}}}), "0909020402010005ad02"},
		{"req progress", true, encode(frReq, &reqFrame{id: 11, kind: rqProgress}), "090b03"},
		{"req sub", true, encode(frReq, &reqFrame{id: 12, kind: rqSub}), "090c04"},
		{"req provision", true, encode(frReq, &reqFrame{id: 8, kind: rqProvision, provIDs: []int{3, 4}, provOwner: []int{1, 2}, provW: []float64{1.5, 2}}), "090805020301000000000000f83f04020000000000000040"},
		{"req terminate", true, encode(frReq, &reqFrame{id: 13, kind: rqTerminate, node: 2}), "090d0602"},
		{"req fail", true, encode(frReq, &reqFrame{id: 14, kind: rqFail, node: 3}), "090e0703"},
		{"req ckpt write", true, encode(frReq, &reqFrame{id: 10, kind: rqCkptWrite}), "090a08"},
		{"reply", true, encode(frReply, &replyFrame{id: 7, body: &okReply{}}), "0a0700"},
		{"bye", true, encodeByeFrame(), "0b"},
		{"stats reply", false, body(goldenStats()), "020105030701000c0a09645a0402011e00032806000103010302"},
		{"ckpt summary", false, body((*ckptSummary)(&entries)), "03010202050505010401030309020700000009"},
		{"ckpt payloads", false, body(ckptPayloads(entries)), "03020573746174650403646c740700"},
		{"progress reply", false, body(&progressReply{12345}), "b960"},
		{"sub reply", false, body(subReply{0, 7, 0, 300}), "02010703ac02"},
		{"ok reply", false, body(&okReply{}), "00"},
		{"error reply", false, body(&okReply{errors.New("nope")}), "046e6f7065"},
	} {
		if got := hex.EncodeToString(v.b); got != v.want {
			t.Errorf("%s: %s, want %s", v.name, got, v.want)
			continue
		}
		if again := decodeControlFrame(v.b); v.frame && !slices.ContainsFunc(again, func(b []byte) bool { return bytes.Equal(b, v.b) }) {
			t.Errorf("%s: decodes back as %x", v.name, again)
		}
	}
}

// BenchmarkControlFrame is one frame's round trip, encode then decode, for
// the data plane's bulk frame (an 11 kB batch) and its smallest (a barrier).
// Both must stay at 2 allocs/op: the decoded message boxed into the mailbox
// interface, and the data batch's (or, for the barrier, the sent message's).
func BenchmarkControlFrame(b *testing.B) {
	payload := make([]byte, 11<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, c := range []struct {
		name string
		msg  func() message
	}{
		{"data", func() message {
			return dataBatchMsg{op: 1, period: 7, count: 300, encoded: append(codec.GetBuf(), payload...)}
		}},
		{"barrier", func() message { return barrierMsg{op: 1, period: 7} }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				msg := c.msg()
				frame := encodeMsgFrame(3, msg)
				if m, ok := msg.(dataBatchMsg); ok {
					codec.PutBuf(m.encoded)
				}
				_, got, err := decodeMsgFrame(frame[0], frame[1:])
				if err != nil {
					b.Fatal(err)
				}
				codec.PutBuf(frame)
				if m, ok := got.(dataBatchMsg); ok {
					codec.PutBuf(m.encoded)
				}
			}
		})
	}
}
