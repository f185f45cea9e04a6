package codec

import (
	"bytes"
	"testing"
)

// FuzzBatchCodec feeds arbitrary bytes through the batch frame decoder and
// checks the round-trip law on whatever survives: decoding must never
// panic, and for any frame that decodes cleanly, re-encoding the decoded
// items and decoding again must reproduce them exactly. The seed corpus
// pins the tricky length-prefix shapes batch_test.go exercises by hand:
// empty frames, empty items, boundary and mid-item truncations, overlong
// prefixes, non-minimal uvarints and maximum-width varints.
func FuzzBatchCodec(f *testing.F) {
	// Well-formed frames.
	f.Add([]byte{})
	f.Add(batchOf(nil, []byte{}))                                       // one empty item
	f.Add(batchOf(nil, []byte("hello"), []byte("world")))               // two items
	f.Add(batchOf(nil, []byte{}, []byte{}, []byte{}))                   // empty items only
	f.Add(batchOf(nil, bytes.Repeat([]byte{0xab}, 300)))                // 2-byte length prefix
	f.Add(batchOf(nil, bytes.Repeat([]byte{0x00}, 127)))                // max 1-byte prefix
	f.Add(batchOf(nil, bytes.Repeat([]byte{0x7f}, 128)))                // min 2-byte prefix
	f.Add(AppendBatchItem(AppendBatchItem(nil, []byte("a")), []byte{})) // trailing empty item
	// Malformed frames (decoder must error, not panic).
	half := batchOf(nil, []byte("hello"), []byte("world"))
	f.Add(half[:len(half)/2])                                                 // boundary truncation
	f.Add(half[:len(half)/2+2])                                               // mid-item truncation
	f.Add(append(AppendUvarint(nil, 1000), 'x'))                              // overlong length prefix
	f.Add([]byte{0x80})                                                       // dangling uvarint continuation
	f.Add([]byte{0x80, 0x00, 'a'})                                            // non-minimal zero length + junk
	f.Add([]byte{0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}) // 10-byte uvarint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // ~max uint64 length
	// Versioned (wire format v2) frames: version byte, then items whose
	// bodies carry dictionary-encoded records. At this layer the records are
	// opaque item bytes; the dictionary corpus below mirrors what the engine
	// stages (a definition then a back-reference) plus the malformed shapes
	// the DictTable decoder must reject: truncated definitions, out-of-range
	// name ids, duplicate names.
	var d Dict
	dictItem := AppendUvarint(nil, 3)                    // kg
	dictItem = append(dictItem, 0x01, 'k', 0x02, 0x01)   // key "k", ts 1, 1 str field
	dictItem = d.AppendRef(dictItem, "geo")              // inline definition (id 0)
	dictItem = append(dictItem, 0x02, 'd', 'k', 0x00)    // value "dk", 0 num fields
	dictItem2 := AppendUvarint(nil, 3)                   // second record back-references
	dictItem2 = append(dictItem2, 0x01, 'k', 0x02, 0x01) //
	dictItem2 = d.AppendRef(dictItem2, "geo")            // back-ref (1 byte)
	dictItem2 = append(dictItem2, 0x02, 'd', 'k', 0x00)  //
	v2 := AppendFrameHeader(nil, FrameV2)
	v2 = AppendBatchItem(v2, dictItem)
	v2 = AppendBatchItem(v2, dictItem2)
	f.Add(v2)                                    // well-formed v2 dictionary frame
	f.Add([]byte{0xF1})                          // retired version byte: not a header
	f.Add(AppendFrameHeader(nil, FrameV2))       // empty v2 frame
	f.Add(v2[:len(v2)-3])                        // truncated mid-record
	truncDict := AppendFrameHeader(nil, FrameV2) // definition claims 100 name bytes, has 2
	truncDict = AppendBatchItem(truncDict, append(AppendUvarint(nil, 100<<1|1), 'a', 'b'))
	f.Add(truncDict)
	oor := AppendFrameHeader(nil, FrameV2) // back-reference to id 40 in an empty dictionary
	oor = AppendBatchItem(oor, AppendUvarint(nil, 40<<1))
	f.Add(oor)
	dup := AppendFrameHeader(nil, FrameV2) // the same name defined twice
	dupItem := AppendUvarint(nil, uint64(len("geo"))<<1|1)
	dupItem = append(dupItem, "geo"...)
	dupItem = append(dupItem, dupItem...)
	dup = AppendBatchItem(dup, dupItem)
	f.Add(dup)

	f.Fuzz(func(t *testing.T, frame []byte) {
		// Strip a valid version header when present (record bodies are opaque
		// items here — the engine's FuzzReceivePath fuzzes their
		// interpretation).
		if _, payload, err := FrameVersion(frame); err == nil {
			frame = payload
		}
		var items [][]byte
		err := DecodeBatch(frame, func(item []byte) error {
			items = append(items, append([]byte(nil), item...))
			return nil
		})
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		// Round trip 1: re-encode the decoded items and decode again.
		re := GetBuf()
		for _, it := range items {
			re = AppendBatchItem(re, it)
		}
		var again [][]byte
		if err := DecodeBatch(re, func(item []byte) error {
			again = append(again, append([]byte(nil), item...))
			return nil
		}); err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if len(again) != len(items) {
			t.Fatalf("round trip changed item count: %d -> %d", len(items), len(again))
		}
		for i := range items {
			if !bytes.Equal(items[i], again[i]) {
				t.Fatalf("item %d changed across round trip: %q -> %q", i, items[i], again[i])
			}
		}
		// Canonically encoded frames are a fixpoint: decode(re) == items and
		// encode(decode(re)) == re.
		re2 := batchOf(nil, again...)
		if !bytes.Equal(re, re2) {
			t.Fatalf("canonical re-encode not a fixpoint (%d vs %d bytes)", len(re), len(re2))
		}
		PutBuf(re)
	})
}
