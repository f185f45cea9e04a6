package engine

import (
	"fmt"
	"testing"

	"repro/internal/codec"
)

// benchFrame stages n realistic records (the Wikipedia job's geohash→topk
// edge shape) into one v2 outbox frame and returns it.
func benchFrame(n int) []byte {
	var ob outbox
	var scratch []byte
	for i := 0; i < n; i++ {
		ob.stage(i%32, (&Tuple{Key: fmt.Sprintf("article-%06d", i%997), TS: int64(i)}).
			WithStr("editor", fmt.Sprintf("editor-%04d", i%53)).
			WithStr("geo", fmt.Sprintf("dk-%02d", i%17)).
			WithNum("bytes", float64(100+i)), &scratch)
	}
	m, _ := ob.take(1)
	return m.encoded
}

// BenchmarkReceivePathV2 measures the zero-allocation receive path end to
// end: one pooled v2 frame of 256 records decoded through the reusable
// TupleView, every field read. allocs/op is the headline number — steady
// state must be 0.
func BenchmarkReceivePathV2(b *testing.B) {
	frame := benchFrame(256)
	var rx rxDecoder
	// Warm the interner so the measurement is steady state.
	_ = decodeBatch(frame, &rx, func(int, *TupleView, int) {})
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		n := 0
		err := decodeBatch(frame, &rx, func(kg int, v *TupleView, wire int) {
			if v.Key() != "" && v.Str("geo") != "" {
				n++
			}
			sum += v.Num("bytes")
		})
		if err != nil || n != 256 {
			b.Fatalf("decoded %d, err %v", n, err)
		}
	}
	b.ReportMetric(256, "tuples/frame")
	_ = sum
}

// BenchmarkStageV2 measures the sender half: staging 256 records into a v2
// frame with the incremental dictionary (names encoded once per frame).
func BenchmarkStageV2(b *testing.B) {
	var tuples []*Tuple
	for i := 0; i < 256; i++ {
		tuples = append(tuples, (&Tuple{Key: fmt.Sprintf("article-%06d", i%997), TS: int64(i)}).
			WithStr("editor", fmt.Sprintf("editor-%04d", i%53)).
			WithStr("geo", fmt.Sprintf("dk-%02d", i%17)).
			WithNum("bytes", float64(100+i)))
	}
	var ob outbox
	var scratch []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, tu := range tuples {
			ob.stage(j%32, tu, &scratch)
		}
		if m, ok := ob.take(1); ok {
			codec.PutBuf(m.encoded)
		}
	}
	b.ReportMetric(256, "tuples/frame")
}
