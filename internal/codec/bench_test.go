package codec

import (
	"fmt"
	"testing"
)

// BenchmarkDictRef measures the per-field cost of the v2 name dictionary on
// the sender (one back-reference append after warmup — the steady state of
// every record after a frame's first).
func BenchmarkDictRef(b *testing.B) {
	var d Dict
	names := [4]string{"article", "bytes", "geo", "editor"}
	buf := make([]byte, 0, 64)
	for _, n := range names {
		buf = d.AppendRef(buf, n) // definitions
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = d.AppendRef(buf[:0], names[i&3])
	}
}

// BenchmarkDictReadRef measures the matching decoder cost (resolve one
// back-reference).
func BenchmarkDictReadRef(b *testing.B) {
	var d Dict
	def := d.AppendRef(nil, "article")
	ref := d.AppendRef(nil, "article")
	var tbl DictTable
	if _, _, err := tbl.ReadRef(def); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tbl.ReadRef(ref); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchFrame measures the raw framing layer: 256 items through
// AppendBatchItem and DecodeBatch on a pooled buffer.
func BenchmarkBatchFrame(b *testing.B) {
	items := make([][]byte, 256)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("record-%06d-payload", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame := AppendFrameHeader(GetBuf(), FrameV2)
		for _, it := range items {
			frame = AppendBatchItem(frame, it)
		}
		_, payload, err := FrameVersion(frame)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := DecodeBatch(payload, func(item []byte) error { n++; return nil }); err != nil || n != 256 {
			b.Fatalf("decoded %d, err %v", n, err)
		}
		PutBuf(frame)
	}
	b.ReportMetric(256, "items/frame")
}
