package statestore

import (
	"fmt"
	"testing"
)

// FuzzStoreDecode fuzzes the durable store decoding — the checkpoint bytes
// an engine would reload after a restart — with the laws recovery relies
// on:
//
//  1. Decode never panics, whatever the bytes;
//  2. anything that decodes cleanly re-encodes to a store that decodes to
//     the same materialized states (round-trip stability);
//  3. every materialized tip state itself survives an encode/decode cycle.
//
// The seed corpus covers well-formed stores (bases plus delta chains) and
// the corrupt shapes the decoder must reject: truncated deltas, duplicate
// and out-of-range gids, inverted versions, lying length prefixes.
func FuzzStoreDecode(f *testing.F) {
	// Well-formed: two groups, one with a delta chain.
	s := New()
	a := NewState()
	a.Add("total", 41)
	a.Table("t").Set("cell", 1)
	s.Checkpoint(0, 1, a)
	b := a.Clone()
	b.Add("total", 1)
	b.Table("t").Set("cell2", 2)
	s.Checkpoint(0, 2, b)
	s.Checkpoint(4, 2, b)
	f.Add(s.Encode(nil), 5)
	// Empty store.
	f.Add(New().Encode(nil), 0)
	// Truncated delta: chop the tail off the valid encoding.
	valid := s.Encode(nil)
	f.Add(valid[:len(valid)-2], 5)
	f.Add(valid[:len(valid)/2], 5)
	// Out-of-range gid for the declared bound.
	f.Add(valid, 1)
	// Duplicate gid entries.
	one := New()
	one.Checkpoint(0, 1, a)
	enc := one.Encode(nil)
	dup := append([]byte{storeMagic, 0x02}, enc[2:]...)
	dup = append(dup, enc[2:]...)
	f.Add(dup, 0)
	// Version inversion and lying counts.
	f.Add([]byte{storeMagic, 0x01, 0x00, 0x05, 0x01, 0x00, 0x00}, 0)
	f.Add([]byte{storeMagic, 0xFF, 0xFF, 0x7F}, 0)
	f.Add([]byte{storeMagic}, 0)
	f.Add([]byte{}, 0)
	// Symbol-table overflow: enough distinct field names that decoding must
	// grow the open-addressed symbol index past its initial size.
	wide := NewState()
	for i := 0; i < 48; i++ {
		wide.Add(fmt.Sprintf("metric-%02d", i), float64(i))
		wide.Table(fmt.Sprintf("tab-%02d", i%7)).Set(fmt.Sprintf("cell-%02d", i), float64(i))
	}
	ws := New()
	ws.Checkpoint(1, 1, wide)
	f.Add(ws.Encode(nil), 5)
	// Deletion-heavy chain: a version that erases most of the wide state,
	// then one that rebuilds part of it — tombstone-dense deltas.
	culled := wide.Clone()
	for i := 0; i < 40; i++ {
		culled.DelNum(fmt.Sprintf("metric-%02d", i))
	}
	for i := 0; i < 6; i++ {
		culled.ClearTable(fmt.Sprintf("tab-%02d", i))
	}
	ws.Checkpoint(1, 2, culled)
	regrown := culled.Clone()
	regrown.Table("tab-00").Set("back", 1)
	ws.Checkpoint(1, 3, regrown)
	f.Add(ws.Encode(nil), 5)
	// Written through the fresh-base rule: a window replaced wholesale
	// between cadences becomes a new base whose version is above the group's
	// first, with one small delta stacked on it afterwards.
	fb := New()
	fb.Checkpoint(2, 1, windowState(1, 12))
	fb.Checkpoint(2, 2, windowState(2, 12))
	touched := windowState(2, 12)
	touched.Table("win").Add("w2-key-0003", 1)
	fb.Checkpoint(2, 3, touched)
	if fb.ChainLen(2) != 1 {
		f.Fatalf("fresh-base seed has chain length %d, want 1", fb.ChainLen(2))
	}
	f.Add(fb.Encode(nil), 5)
	// Bases and deltas in the orders no encoder writes and the one decoder
	// reads: storage order, keys descending, a key twice, a table twice.
	odd := New()
	next := wide.Clone()
	for i := 0; i < 48; i += 3 {
		next.Table(fmt.Sprintf("tab-%02d", i%7)).Set(fmt.Sprintf("cell-%02d", i), -1)
	}
	step := Diff(wide, next)
	bases := append([][]byte{wide.EncodeTransfer(nil)}, stateShapes(wide)...)
	deltas := append([][]byte{step.EncodeTransfer(nil)}, deltaShapes(step)...)
	for gid := range bases {
		odd.Record(gid, 1, StepBase, bases[gid], nil)   //nolint:errcheck // a base
		odd.Record(gid, 2, StepDelta, deltas[gid], nil) //nolint:errcheck // on the base above
		if odd.ChainLen(gid) != 1 {
			f.Fatalf("odd-order seed: group %d has chain length %d, want 1", gid, odd.ChainLen(gid))
		}
	}
	f.Add(odd.Encode(nil), 5)

	f.Fuzz(func(t *testing.T, b []byte, maxGID int) {
		if maxGID < 0 || maxGID > 1<<16 {
			maxGID = 0
		}
		s, err := Decode(b, maxGID)
		if err != nil {
			return // malformed input may fail, never panic
		}
		// Law 2+3: round trip through encode/decode, comparing materialized
		// states group by group.
		enc := s.Encode(nil)
		s2, err := Decode(enc, maxGID)
		if err != nil {
			t.Fatalf("re-encoded store failed to decode: %v", err)
		}
		if s2.Len() != s.Len() {
			t.Fatalf("round trip changed group count: %d vs %d", s2.Len(), s.Len())
		}
		for _, gid := range s.Groups() {
			want, wver, _ := s.Materialize(gid)
			have, hver, ok := s2.Materialize(gid)
			if !ok || wver != hver {
				t.Fatalf("gid %d: version %d vs %d (ok=%v)", gid, wver, hver, ok)
			}
			if !Diff(want, have).Empty() || !Diff(have, want).Empty() {
				t.Fatalf("gid %d: materialized state changed across round trip", gid)
			}
			stEnc := want.Encode(nil)
			st2, err := DecodeState(stEnc)
			if err != nil {
				t.Fatalf("gid %d: tip state failed to re-decode: %v", gid, err)
			}
			if !Diff(want, st2).Empty() {
				t.Fatalf("gid %d: tip state changed across encode/decode", gid)
			}
		}
	})
}

// FuzzDeltaDecode fuzzes the delta decoder: never panic, and any delta that
// decodes cleanly must apply to an empty state and re-encode/re-decode to
// an equivalent delta (same effect on the same base).
func FuzzDeltaDecode(f *testing.F) {
	a := NewState()
	a.Add("n", 1)
	a.Add("gone", 1)
	a.Table("t").Set("c", 2)
	b := a.Clone()
	b.Add("n", 1)
	b.DelNum("gone")
	b.ClearTable("t")
	b.Table("u").Set("d", 3)
	f.Add(Diff(a, b).Encode(nil))
	f.Add(Diff(b, a).Encode(nil))
	f.Add(Diff(nil, a).Encode(nil))
	f.Add((&Delta{}).Encode(nil))
	f.Add([]byte{0xFF, 0x7F})
	f.Add([]byte{})
	f.Add(retiredStrSetDelta)
	f.Add(retiredStrDelDelta)
	// Deletion-heavy delta: diff from a wide state down to almost nothing.
	wide := NewState()
	for i := 0; i < 48; i++ {
		wide.Add(fmt.Sprintf("metric-%02d", i), float64(i))
		wide.Table(fmt.Sprintf("tab-%02d", i%7)).Set(fmt.Sprintf("cell-%02d", i), float64(i))
	}
	f.Add(Diff(wide, a).Encode(nil))
	// Empty-table creation: the zero-cell table entry DiffInto ships when a
	// table exists in `new` with no cells yet.
	bare := NewState()
	bare.Table("empty")
	f.Add(Diff(nil, bare).Encode(nil))
	// The orders no encoder writes: storage order, cells descending, a cell
	// set twice, a table's cells set twice.
	f.Add(Diff(a, wide).EncodeTransfer(nil))
	for _, shape := range deltaShapes(Diff(a, wide)) {
		f.Add(shape)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		d, rest, err := DecodeDelta(raw)
		if err != nil {
			return
		}
		_ = rest
		if got := d.Size(); got != len(d.Encode(nil)) {
			t.Fatalf("Size()=%d, len(Encode)=%d", got, len(d.Encode(nil)))
		}
		st := NewState()
		d.Apply(st)
		enc := d.Encode(nil)
		d2, rest2, err := DecodeDelta(enc)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-encoded delta failed to decode: %v (%d trailing)", err, len(rest2))
		}
		st2 := NewState()
		d2.Apply(st2)
		if !Diff(st, st2).Empty() || !Diff(st2, st).Empty() {
			t.Fatal("delta effect changed across encode/decode")
		}
	})
}

// FuzzCheckState holds CheckState to the decoder it stands in for: whatever
// the bytes, it fails exactly where DecodeStateInto does, and never panics.
func FuzzCheckState(f *testing.F) {
	wide := NewState()
	for i := 0; i < 20; i++ {
		wide.Add(fmt.Sprintf("metric-%02d", i), float64(i))
		wide.Table(fmt.Sprintf("tab-%02d", i%4)).Set(fmt.Sprintf("cell-%02d", i), float64(i))
	}
	for _, b := range append(stateShapes(wide), wide.Encode(nil), NewState().Encode(nil)) {
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{0x05, 0x00})
	f.Add([]byte{0x00, 0x00, 0x01, 0x01, 't', 0x7f})
	f.Add(retiredRegisterState)
	f.Fuzz(func(t *testing.T, b []byte) {
		var st State
		if derr, cerr := DecodeStateInto(b, &st), CheckState(b); (derr == nil) != (cerr == nil) {
			t.Fatalf("DecodeStateInto: %v, CheckState: %v", derr, cerr)
		}
	})
}
