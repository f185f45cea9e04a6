package statestore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// bigState builds a state with `cells` table cells — the "large window
// contents" shape whose migration the checkpoint-assisted path accelerates.
func bigState(cells int) *State {
	st := NewState()
	st.Add("total", float64(cells))
	t := st.Table("seen")
	for i := 0; i < cells; i++ {
		t.Set(fmt.Sprintf("key-%06d", i), float64(i))
	}
	return st
}

// touch mutates `dirty` cells of st (the per-period churn on a mostly-cold
// state).
func touch(st *State, dirty, salt int) {
	t := st.Table("seen")
	for i := 0; i < dirty; i++ {
		t.Add(fmt.Sprintf("key-%06d", (salt*dirty+i)%2000), 1)
	}
	st.Add("total", float64(dirty))
}

// BenchmarkStateStoreCheckpoint measures one incremental checkpoint of a
// 2000-cell state with 1% churn: the delta-append cost the controller pays
// per cadence, vs re-encoding the full snapshot every time.
func BenchmarkStateStoreCheckpoint(b *testing.B) {
	s := New()
	st := bigState(2000)
	s.Checkpoint(0, 0, st)
	b.ReportAllocs()
	b.ResetTimer()
	appended := 0
	for i := 0; i < b.N; i++ {
		touch(st, 20, i)
		appended += s.Checkpoint(0, i+1, st)
	}
	b.ReportMetric(float64(appended)/float64(b.N), "deltaB/ckpt")
	b.ReportMetric(float64(len(st.Encode(nil))), "fullB")
}

// BenchmarkStateStoreMaterialize measures reconstructing a checkpointed
// state from its base + delta chain (the recovery read path).
func BenchmarkStateStoreMaterialize(b *testing.B) {
	s := New()
	st := bigState(2000)
	s.Checkpoint(0, 0, st)
	for v := 1; v <= 6; v++ {
		touch(st, 20, v)
		s.Checkpoint(0, v, st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, ok := s.Materialize(0)
		if !ok || got.numN+got.tabN == 0 {
			b.Fatal("materialize failed")
		}
	}
}

// BenchmarkStateStoreDiff measures computing the live-vs-checkpoint delta
// of a 2000-cell state with 1% churn — the per-period cost of the planner's
// delta-size signal and the barrier-time cost of a delta migration.
func BenchmarkStateStoreDiff(b *testing.B) {
	base := bigState(2000)
	live := base.Clone()
	touch(live, 20, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Diff(base, live)
		if deltaEmpty(d) {
			b.Fatal("empty diff")
		}
	}
}

// randKey is the i-th of a fixed sequence of uniformly random cell keys
// (article-title sized, no skew).
func randKey(i int) string {
	rng := rand.New(rand.NewSource(int64(i)))
	b := make([]byte, 10+rng.Intn(12))
	for j := range b {
		b[j] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// liveWindowState is RealJob1's topk state as a shard holds it when it is
// asked to move: six window buckets of ≈1.5 k cells each, filled by inserts in
// arrival order and never decoded — so its storage order is not its sorted
// order, which is what a state decoded from canonical bytes cannot show.
func liveWindowState() *State {
	st := NewState()
	st.Add("period", 6)
	for w := 0; w < 6; w++ {
		t := st.Table(fmt.Sprintf("w%d", w))
		for c := 0; c < 1500; c++ {
			t.Add(randKey(w*1500+c), float64(c))
		}
	}
	return st
}

// BenchmarkStateCodec measures what a state move pays per byte on a
// live-order state: the canonical (sorted) encoding the checkpoint log stores,
// the transfer encoding a move ships, decoding into a fresh and into a recycled
// state, and the same two encodings of the delta to the state one window later.
func BenchmarkStateCodec(b *testing.B) {
	st := liveWindowState()
	enc := st.Encode(nil)
	buf := make([]byte, 0, len(enc))
	run := func(name string, bytes int, fn func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(bytes))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
	}
	run("encode-canonical", len(enc), func() { buf = st.Encode(buf[:0]) })
	run("encode-transfer", len(enc), func() { buf = st.EncodeTransfer(buf[:0]) })
	run("decode-fresh", len(enc), func() {
		if _, err := DecodeState(enc); err != nil {
			b.Fatal(err)
		}
	})
	recycled := NewState()
	run("decode-recycled", len(enc), func() {
		if err := DecodeStateInto(enc, recycled); err != nil {
			b.Fatal(err)
		}
	})
	transfer := st.EncodeTransfer(nil)
	run("decode-recycled-transfer", len(enc), func() {
		if err := DecodeStateInto(transfer, recycled); err != nil {
			b.Fatal(err)
		}
	})
	// One window on: a bucket replaced, the rest untouched. Encoding reorders
	// the delta, so each iteration encodes a copy in diff order.
	next := st.Clone()
	next.ClearTable("w0")
	for c := 0; c < 1500; c++ {
		next.Table("w0").Add(randKey(1<<20+c), 1)
	}
	diff := Diff(st, next)
	var d Delta
	resetDelta := func() {
		d.Reset()
		for i := range diff.tabSet {
			e := d.growTabSet(diff.tabSet[i].name)
			e.cells = append(e.cells, diff.tabSet[i].cells...)
		}
		for i := range diff.tabCellDel {
			e := d.growTabCellDel(diff.tabCellDel[i].name)
			e.keys = append(e.keys, diff.tabCellDel[i].keys...)
		}
	}
	run("delta-encode-canonical", diff.Size(), func() { resetDelta(); buf = d.Encode(buf[:0]) })
	run("delta-encode-transfer", diff.Size(), func() { resetDelta(); buf = d.EncodeTransfer(buf[:0]) })
}

// BenchmarkTable measures the table operations the data path, the barrier and
// the checkpoint write are made of, per cell of the table, at the two shapes the benchmark
// jobs give a table: rj1's window bucket (≈600 cells under 14-byte article
// keys) and rj3's byYear (≈300 cells under 11-byte plane|year keys). One
// iteration is one pass over the table; once the tables have their size none
// of them allocates but the inserts, which copy their keys: one 4 KB chunk per
// ≈290 article keys.
func BenchmarkTable(b *testing.B) {
	for _, shape := range []struct {
		name  string
		cells int
		key   func(i int) string
	}{
		{"rj1", 600, func(i int) string { return fmt.Sprintf("article-%06d", i*31%20000) }},
		{"rj3", 300, func(i int) string { return fmt.Sprintf("N%05d|%d", i/10*64%2000, 2004+i%10) }},
	} {
		// keys[:cells] fill the table; keys[cells:] are the same shape and absent.
		keys := make([]string, 2*shape.cells)
		for i := range keys {
			keys[i] = shape.key(i)
		}
		in, out := keys[:shape.cells], keys[shape.cells:]
		filled := func(keys []string) *Table {
			t := &Table{}
			for i, k := range keys {
				t.Add(k, float64(i))
			}
			return t
		}
		run := func(name string, cells int, pass func()) {
			b.Run(shape.name+"/"+name, func(b *testing.B) {
				pass() // size every table involved
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pass()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
			})
		}
		tab := filled(in)
		run("add-hit", len(in), func() {
			for _, k := range in {
				tab.Add(k, 1)
			}
		})
		recycled := filled(in)
		run("add-insert-after-clear", len(in), func() {
			recycled.clear()
			for _, k := range in {
				recycled.Add(k, 1)
			}
		})
		run("lookup-miss", len(out), func() {
			for _, k := range out {
				if _, ok := tab.Lookup(k); ok {
					b.Fatal("absent key found")
				}
			}
		})
		// A window fold in small: the first bucket is all inserts, the second
		// half hits, half inserts.
		first, second, totals := filled(in), filled(keys[shape.cells/2:shape.cells/2+shape.cells]), &Table{}
		run("addtable", 2*shape.cells, func() {
			totals.clear()
			totals.AddTable(first)
			totals.AddTable(second)
		})
		// The barrier's delta sizing: a live table against its checkpoint tip,
		// one cell in a hundred changed, a few added and removed.
		tip, live := NewState(), NewState()
		tip.Table("w").copyFrom(tab)
		live.Table("w").copyFrom(tab)
		for i := 0; i < shape.cells; i += 100 {
			live.Table("w").Add(in[i], 1)
			live.Table("w").delete(in[i+1])
			live.Table("w").Add(out[i], 1)
		}
		run("diffsize", live.Table("w").Len(), func() {
			if DiffSize(tip, live) <= emptyDeltaSize {
				b.Fatal("empty delta")
			}
		})
		// The same sizing by a tip that tracks the live table (Tip.Measure):
		// each pass writes one cell in a hundred, none added or removed, and
		// reads; the reading visits only the cells written since the last.
		tracked, tracker, d := NewState(), &Tip{}, &Delta{}
		tracked.Table("w").copyFrom(tab)
		tracker.Cut(d, 0, tracked)
		tt := tracked.Table("w")
		run("diffsize-tracked", tt.Len(), func() {
			for i := 0; i < len(in); i += 100 {
				tt.Add(in[i], 1)
			}
			if tracker.Measure(0, tracked) <= emptyDeltaSize {
				b.Fatal("empty delta")
			}
		})
		// The canonical order a checkpoint writes the table in, of a table
		// filled in arrival order, as a live one is: the keys shuffled.
		arrivals := slices.Clone(in)
		rand.New(rand.NewSource(1)).Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
		shuffled, o := filled(arrivals), new(keyOrder)
		run("order-canonical", len(in), func() { shuffled.order(o) })
	}
}
