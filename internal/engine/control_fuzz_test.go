package engine

import (
	"testing"

	"repro/internal/codec"
)

// FuzzControlFrame fuzzes the worker/controller control-plane decoders
// through their single raw-bytes entry point, decodeControlFrame — the
// exact exposure a distributed engine has to a corrupt or hostile peer once
// the transport hands it a frame. The only law is total safety: whatever
// the bytes, every decoder must return an error instead of panicking or
// allocating unboundedly (the maxWire* hardening bounds).
func FuzzControlFrame(f *testing.F) {
	// One well-formed seed per frame kind, straight from the real encoders.
	var ob outbox
	ob.stage(2, (&Tuple{Key: "k", TS: 1}).WithNum("v", 3))
	if m, ok := ob.take(1); ok {
		m.op, m.period, m.count = 1, 2, 1
		f.Add(append([]byte(nil), encodeMsgFrame(5, m)...))
	}
	f.Add(append([]byte(nil), encodeMsgFrame(3, barrierMsg{op: 1, period: 2})...))
	f.Add(append([]byte(nil), encodeMsgFrame(3, barrierMsg{op: 1, period: 2, more: true})...)) // closes a segment, not the period
	f.Add(append([]byte(nil), encodeMsgFrame(3, stateMsg{op: 1, kg: 2, encoded: []byte("st"), delta: true, baseVer: 4})...))
	f.Add(append([]byte(nil), encodeMsgFrame(3, migrateOutMsg{op: 1, kg: 2, dest: 0, deltaBase: -1})...))
	f.Add(append([]byte(nil), encodeMsgFrame(3, precopyMsg{op: 1, kg: 2, version: 3, total: 10, off: 5, chunk: []byte("chunk")})...))
	f.Add(append([]byte(nil), encodeMsgFrame(3, precopyMsg{op: 1, kg: 2, discard: true})...))
	f.Add(append([]byte(nil), encodeMsgFrame(3, recoverMsg{op: 1, kg: 2, encoded: []byte("enc"), tipVer: 7})...))
	f.Add(append([]byte(nil), encodeArmFrame(armFrame{period: 3, numNodes: 2, alloc: []int{0, 1, 0}, barrierNeed: []int{2, 2}, awaitIn: []int{1}})...))
	f.Add(append([]byte(nil), encodeArmFrame(armFrame{period: 3, resume: true, numNodes: 2, alloc: []int{0, 0, 0}, barrierNeed: []int{2, 2}, awaitIn: []int{1}})...)) // the next segment of a running period
	f.Add(append([]byte(nil), encodeEventFrame(engEvent{kind: evMigrated, node: 1, op: 2, bytes: 3, delta: true, gid: 4})...))
	f.Add(append([]byte(nil), encodeReqFrame(reqFrame{id: 7, kind: rqStats})...))
	f.Add(append([]byte(nil), encodeReqFrame(reqFrame{id: 8, kind: rqProvision, provIDs: []int{3}, provOwner: []int{1}, provW: []float64{1.5}})...))
	f.Add(append([]byte(nil), encodeReplyFrame(7, encodeOKReply(nil))...))
	f.Add(append([]byte(nil), encodeByeFrame()...))
	// Malformed shapes: empty, unknown kind, truncations, absurd counts.
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{frArm})
	f.Add([]byte{frData, 0x80})
	f.Add(append([]byte{frState}, codec.AppendUvarint(nil, 1<<40)...))
	f.Add(append([]byte{frArm}, codec.AppendUvarint(codec.AppendUvarint(nil, 1), 1<<30)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeControlFrame(data) //nolint:errcheck // law: never panics
	})
}
