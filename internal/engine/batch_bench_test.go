package engine

import (
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/statestore"
)

// benchKGs is how many key groups the records of benchFrame spread over.
const benchKGs = 32

// benchFrame stages n realistic records (the Wikipedia job's geohash→topk
// edge shape) into one v2 outbox frame and returns it.
func benchFrame(n int) []byte {
	var ob outbox
	for i := 0; i < n; i++ {
		ob.stage(i%benchKGs, (&Tuple{Key: fmt.Sprintf("article-%06d", i%997), TS: int64(i)}).
			WithStr("editor", fmt.Sprintf("editor-%04d", i%53)).
			WithStr("geo", fmt.Sprintf("dk-%02d", i%17)).
			WithNum("bytes", float64(100+i)))
	}
	m, _ := ob.take(1)
	return m.encoded
}

// BenchmarkReceivePathV2 measures the zero-allocation receive path end to
// end: one pooled v2 frame of 256 records decoded into the reusable record,
// every field read. allocs/op is the headline number — steady state must be 0.
func BenchmarkReceivePathV2(b *testing.B) {
	frame := benchFrame(256)
	var rx rxDecoder
	// Warm the field-name cache so the measurement is steady state.
	_ = decodeBatch(frame, &rx, benchKGs, func(int, *Tuple, int) {})
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		n := 0
		err := decodeBatch(frame, &rx, benchKGs, func(kg int, v *Tuple, wire int) {
			if v.Key != "" && v.Str("geo") != "" {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, tu := range tuples {
			ob.stage(j%32, tu)
		}
		if m, ok := ob.take(1); ok {
			codec.PutBuf(m.encoded)
		}
	}
	b.ReportMetric(256, "tuples/frame")
}

// BenchmarkHop measures one hop of the data path the way a shard runs it: a
// pooled frame of 256 source records of the Wikipedia job (key = article;
// editor, geo, bytes) is decoded into the reusable record, each record goes
// through the job's first operator (count in the group's state, build the
// geo-keyed output from the record's strings) and the output is staged into an
// outbox frame. Nothing on it copies a key before the stage does, and nothing
// allocates: ns/tuple is the number to watch, allocs/op must be 0.
func BenchmarkHop(b *testing.B) {
	const records = 256
	frame := benchFrame(records)
	var (
		rx rxDecoder
		tp tupleFreeList
		ob outbox
		st = statestore.NewState()
	)
	rx.rec.home = &tp
	hop := func() {
		err := decodeBatch(frame, &rx, benchKGs, func(kg int, v *Tuple, wire int) {
			st.Add("edits", 1)
			out := v.NewTuple(v.Str("geo"), v.TS).
				WithStr("article", v.Key).
				WithNum("bytes", v.Num("bytes"))
			ob.stage(kg, out)
			recycle(out)
		})
		if m, ok := ob.take(1); err != nil || !ok || m.count != records {
			b.Fatalf("staged %d of %d records, err %v", m.count, records, err)
		} else {
			codec.PutBuf(m.encoded)
		}
	}
	hop() // warm the field-name cache, the free list and the buffer pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/tuple")
}
