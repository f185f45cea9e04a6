package engine

import (
	"math"
	"strings"
	"testing"

	"repro/internal/codec"
)

// FuzzReceivePath fuzzes the real cross-node receive path — versioned frame
// → dictionary table → a tuple over the frame's bytes — with the laws the
// engine relies on:
//
//  1. decodeBatch never panics, whatever the bytes;
//  2. the decoded tuple and its Clone agree after the frame is scribbled: the
//     clone owns its strings;
//  3. any frame that decodes cleanly survives a re-encode through the v2
//     sender (outbox staging) and decodes to the same tuples.
//
// The seed corpus covers well-formed frames, a frame of the retired version
// 0xF1 (rejected whole) and the corrupt shapes the dictionary layer must
// reject: truncated dictionary definitions, out-of-range name ids, duplicate
// names, truncated floats and oversized field counts.
func FuzzReceivePath(f *testing.F) {
	// Well-formed v2 frames, straight from the sender.
	var ob outbox
	ob.stage(3, (&Tuple{Key: "k1", TS: 7}).WithStr("geo", "dk").WithNum("b", 2))
	ob.stage(3, (&Tuple{Key: "k2", TS: 8}).WithStr("geo", "se").WithNum("b", 3))
	if m, ok := ob.take(1); ok {
		f.Add(append([]byte(nil), m.encoded...))
	}
	ob.stage(0, &Tuple{}) // empty tuple
	if m, ok := ob.take(1); ok {
		f.Add(append([]byte(nil), m.encoded...))
	}
	// A frame a v1 sender would have shipped: rejected on its version byte.
	f.Add(retiredV1Frame())
	// Corrupt v2 shapes.
	add := func(items ...[]byte) {
		frame := codec.AppendFrameHeader(nil, codec.FrameV2)
		for _, it := range items {
			frame = codec.AppendBatchItem(frame, it)
		}
		f.Add(frame)
	}
	add([]byte{0x00, 0x00, 0x00})                                              // kg, empty key, ts — then truncated
	add([]byte{0x00, 0x00, 0x00, 0x05})                                        // claims 5 str fields, has none
	add([]byte{0x00, 0x00, 0x00, 0x01, 0xc9, 'a', 'b'})                        // truncated name definition (100<<1|1)
	add([]byte{0x00, 0x00, 0x00, 0x01, 0x50, 0x00, 0x00})                      // out-of-range name id 40
	add([]byte{0x00, 0x00, 0x00, 0x00, 0x01, 0x07, 'g', 'e', 'o', 0x01, 0x02}) // truncated float
	dup := []byte{0x00, 0x00, 0x00, 0x02, 0x07, 'g', 'e', 'o', 0x00, 0x07, 'g', 'e', 'o', 0x00, 0x00}
	add(dup)                  // duplicate name definitions in one record
	f.Add([]byte{0xF2})       // header-only v2 frame
	f.Add([]byte{0xF1})       // retired version byte alone
	f.Add([]byte{0x42, 0x42}) // unknown version byte
	f.Add([]byte{})           // empty input

	f.Fuzz(func(t *testing.T, input []byte) {
		frame := append([]byte(nil), input...) // scribbled below
		var rx rxDecoder
		type rec struct {
			kg int
			t  *Tuple
			// read is what the decoded tuple held while the frame was intact,
			// string by string through strings.Clone.
			read *Tuple
		}
		var recs []rec
		err := decodeBatch(frame, &rx, maxWireGroups, func(kg int, v *Tuple, wire int) {
			if frame[0] != codec.FrameV2 {
				t.Fatalf("decoded a record out of a frame headed 0x%02x", frame[0])
			}
			if wire <= 0 {
				t.Fatalf("non-positive wire length %d", wire)
			}
			read := &Tuple{Key: strings.Clone(v.Key), TS: v.TS}
			for _, fld := range v.strs {
				read.strs = append(read.strs, strField{K: strings.Clone(fld.K), V: strings.Clone(fld.V)})
			}
			for _, fld := range v.nums {
				read.nums = append(read.nums, numField{K: strings.Clone(fld.K), V: fld.V})
			}
			recs = append(recs, rec{kg: kg, t: v.Clone(), read: read})
		})
		for i := range frame {
			frame[i] = 0xA5
		}
		// Law 2: the clone still says what the decoded tuple said.
		for i, r := range recs {
			if r.t.Key != r.read.Key || r.t.TS != r.read.TS ||
				!strFieldsEqual(r.t.strs, r.read.strs) || !numFieldsEqual(r.t.nums, r.read.nums) {
				t.Fatalf("record %d: the cloned tuple changed with the frame:\n got %+v\nread %+v", i, r.t, r.read)
			}
		}
		if err != nil {
			return // malformed input may fail, never panic
		}
		// Law 3: re-encode through the v2 sender and decode again.
		var ob outbox
		for _, r := range recs {
			ob.stage(r.kg, r.t)
		}
		m, ok := ob.take(1)
		if !ok {
			if len(recs) != 0 {
				t.Fatalf("%d records staged, empty frame", len(recs))
			}
			return
		}
		var rx2 rxDecoder
		i := 0
		if err := decodeBatch(m.encoded, &rx2, maxWireGroups, func(kg int, v *Tuple, wire int) {
			if i >= len(recs) {
				t.Fatalf("re-encode grew the batch (%d records staged)", len(recs))
			}
			want := recs[i]
			got := v.Clone()
			if kg != want.kg || got.Key != want.t.Key || got.TS != want.t.TS ||
				!strFieldsEqual(got.strs, want.t.strs) || !numFieldsEqual(got.nums, want.t.nums) {
				t.Fatalf("record %d changed across re-encode:\n got %+v\nwant %+v", i, got, want.t)
			}
			i++
		}); err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if i != len(recs) {
			t.Fatalf("re-encode shrank the batch: %d of %d", i, len(recs))
		}
	})
}

func strFieldsEqual(a, b []strField) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func numFieldsEqual(a, b []numField) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].K != b[i].K || math.Float64bits(a[i].V) != math.Float64bits(b[i].V) {
			return false
		}
	}
	return true
}
