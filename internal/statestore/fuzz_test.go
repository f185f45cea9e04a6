package statestore

import (
	"fmt"
	"testing"
)

// wideStates is the deletion-heavy history the fuzz corpora start from: a
// state with more names than the symbol index first holds, the same with most
// tables cleared, and that with one cell written back.
func wideStates() (wide, culled, regrown *State) {
	wide = NewState()
	for i := 0; i < 48; i++ {
		wide.Add(fmt.Sprintf("metric-%02d", i), float64(i))
		wide.Table(fmt.Sprintf("tab-%02d", i%7)).Set(fmt.Sprintf("cell-%02d", i), float64(i))
	}
	culled = wide.Clone()
	for i := 0; i < 6; i++ {
		culled.ClearTable(fmt.Sprintf("tab-%02d", i))
	}
	regrown = culled.Clone()
	regrown.Table("tab-00").Set("back", 1)
	return wide, culled, regrown
}

// freshBaseStates is a window replaced wholesale between cadences — the second
// state is a fresh base, not a delta — and then touched in one cell.
func freshBaseStates() (base, touched *State) {
	base, touched = windowState(2, 12), windowState(2, 12)
	touched.Table("win").Add("w2-key-0003", 1)
	return base, touched
}

// FuzzDeltaDecode fuzzes the delta decoder: never panic, and any delta that
// decodes cleanly must apply to an empty state and re-encode/re-decode to
// an equivalent delta (same effect on the same base).
func FuzzDeltaDecode(f *testing.F) {
	a := NewState()
	a.Add("n", 1)
	a.Table("t").Set("c", 2)
	b := a.Clone()
	b.Add("n", 1)
	b.ClearTable("t")
	b.Table("u").Set("d", 3)
	f.Add(wholeDiff(a, b).Encode(nil))
	f.Add(wholeDiff(b, a).Encode(nil))
	f.Add(wholeDiff(nil, a).Encode(nil))
	f.Add((&Delta{}).Encode(nil))
	f.Add([]byte{0xFF, 0x7F})
	f.Add([]byte{})
	f.Add(retiredNumDelDelta)
	f.Add(retiredStrSetDelta)
	f.Add(retiredStrDelDelta)
	// Deletion-heavy deltas: from a wide state down to its counters, and a
	// chain that erases most of it and then writes one cell back.
	wide, culled, regrown := wideStates()
	f.Add(wholeDiff(wide, keepCounters(wide, NewState())).Encode(nil))
	f.Add(wholeDiff(wide, culled).Encode(nil))
	f.Add(wholeDiff(culled, regrown).Encode(nil))
	base, touched := freshBaseStates()
	f.Add(wholeDiff(base, touched).Encode(nil))
	// Empty-table creation: the zero-cell table entry wholeDiffInto ships when a
	// table exists in `new` with no cells yet.
	bare := NewState()
	bare.Table("empty")
	f.Add(wholeDiff(nil, bare).Encode(nil))
	// The orders no encoder writes: storage order, cells descending, a cell
	// set twice, a table's cells set twice.
	aToWide := keepCounters(a, wide.Clone())
	f.Add(wholeDiff(a, aToWide).EncodeTransfer(nil))
	for _, shape := range deltaShapes(wholeDiff(a, aToWide)) {
		f.Add(shape)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		d := &Delta{}
		if _, err := DecodeDeltaInto(raw, d); err != nil {
			return
		}
		if got := d.Size(); got != len(d.Encode(nil)) {
			t.Fatalf("Size()=%d, len(Encode)=%d", got, len(d.Encode(nil)))
		}
		st := NewState()
		d.Apply(st)
		enc := d.Encode(nil)
		d2 := &Delta{}
		rest2, err := DecodeDeltaInto(enc, d2)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-encoded delta failed to decode: %v (%d trailing)", err, len(rest2))
		}
		st2 := NewState()
		d2.Apply(st2)
		if !statesEqual(st, st2) {
			t.Fatal("delta effect changed across encode/decode")
		}
	})
}

// FuzzCheckState holds CheckState to the decoder it stands in for: whatever
// the bytes, it fails exactly where DecodeStateInto does, and never panics;
// and a state that decodes re-encodes to bytes that decode to it again.
func FuzzCheckState(f *testing.F) {
	wide := NewState()
	for i := 0; i < 20; i++ {
		wide.Add(fmt.Sprintf("metric-%02d", i), float64(i))
		wide.Table(fmt.Sprintf("tab-%02d", i%4)).Set(fmt.Sprintf("cell-%02d", i), float64(i))
	}
	wide48, culled, regrown := wideStates()
	base, touched := freshBaseStates()
	seeds := append(stateShapes(wide), wide.Encode(nil), NewState().Encode(nil))
	for _, st := range []*State{wide48, culled, regrown, base, touched} {
		seeds = append(seeds, st.Encode(nil))
	}
	for _, b := range seeds {
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{0x05, 0x00})
	f.Add([]byte{0x00, 0x00, 0x01, 0x01, 't', 0x7f})
	f.Add(retiredRegisterState)
	// Found by fuzzing: states whose cells are NaNs, which a comparison by
	// value finds different from themselves.
	f.Add([]byte("\x01 0000000000000000000000000000000000000000\x00\x00000"))
	f.Add([]byte("\x01\x050000000000000\x00\x01\x010\x02\x040000000000\xff\xff\x050000000000000"))
	f.Fuzz(func(t *testing.T, b []byte) {
		var st State
		derr, cerr := DecodeStateInto(b, &st), CheckState(b)
		if (derr == nil) != (cerr == nil) {
			t.Fatalf("DecodeStateInto: %v, CheckState: %v", derr, cerr)
		}
		if derr != nil {
			return
		}
		again, err := DecodeState(st.Encode(nil))
		if err != nil {
			t.Fatalf("re-encoded state failed to decode: %v", err)
		}
		if !statesEqual(&st, again) {
			t.Fatal("state changed across encode/decode")
		}
	})
}
