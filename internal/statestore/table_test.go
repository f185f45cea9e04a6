package statestore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/codec"
)

// checkTable asserts everything a Table's probes, deletes and table-to-table
// walks rely on: the dense arrays are one length, every entry's stored hash
// is hashKey of its key, every occupied slot carries the index of a distinct
// entry and that entry's tag, every key is found by walking from its home
// slot without crossing an empty one, and the incremental encoded size is the
// sum over the cells.
func checkTable(t *testing.T, tab *Table, ctx string) {
	t.Helper()
	n := len(tab.keys)
	if len(tab.vals) != n || len(tab.hashes) != n {
		t.Fatalf("%s: dense arrays %d keys, %d vals, %d hashes", ctx, n, len(tab.vals), len(tab.hashes))
	}
	if tab.slots == nil {
		if n != 0 {
			t.Fatalf("%s: %d entries and no slots", ctx, n)
		}
		return
	}
	if len(tab.slots)&(len(tab.slots)-1) != 0 || tab.mask != uint32(len(tab.slots)-1) {
		t.Fatalf("%s: %d slots under mask %#x", ctx, len(tab.slots), tab.mask)
	}
	if 4*n >= 3*len(tab.slots) {
		t.Fatalf("%s: %d entries in %d slots, at or past the growth load", ctx, n, len(tab.slots))
	}
	seen := make([]bool, n)
	for i, s := range tab.slots {
		if s == 0 {
			continue
		}
		e := int(s&tab.mask) - 1
		if e < 0 || e >= n {
			t.Fatalf("%s: slot %d points at entry %d of %d", ctx, i, e, n)
		}
		if seen[e] {
			t.Fatalf("%s: entry %d has two slots", ctx, e)
		}
		seen[e] = true
		if s&^tab.mask != tab.hashes[e]&^tab.mask {
			t.Fatalf("%s: slot %d tag %#x, entry %d hash %#x", ctx, i, s&^tab.mask, e, tab.hashes[e])
		}
	}
	enc := 0
	for e, k := range tab.keys {
		if !seen[e] {
			t.Fatalf("%s: entry %d (%q) has no slot", ctx, e, k)
		}
		if tab.hashes[e] != hashKey(k) {
			t.Fatalf("%s: entry %d (%q) stores hash %#x, hashKey %#x", ctx, e, k, tab.hashes[e], hashKey(k))
		}
		for i := tab.hashes[e] & tab.mask; ; i = (i + 1) & tab.mask {
			s := tab.slots[i]
			if s == 0 {
				t.Fatalf("%s: entry %d (%q) is behind an empty slot on its probe chain", ctx, e, k)
			}
			if int(s&tab.mask)-1 == e {
				break
			}
		}
		enc += codec.SizeString(k) + 8
	}
	if tab.encBytes != enc {
		t.Fatalf("%s: encBytes %d, cells sum to %d", ctx, tab.encBytes, enc)
	}
}

// checkStateTables runs checkTable over every table of st, live or retained.
func checkStateTables(t *testing.T, st *State, ctx string) {
	t.Helper()
	for sym, tab := range st.tabs {
		if tab != nil {
			checkTable(t, tab, fmt.Sprintf("%s table %q", ctx, st.names[sym]))
		}
	}
}

// TestTableInvariantsUnderChurn drives a few tables of one State through every
// way an entry's stored hash is written or moved — insert, Add, Set, delete's
// swap and backward shift, clear, ClearTable and re-creation, copyFrom into a
// smaller, larger and dirty table, AddTable, reserve + decode, Reset recycling,
// insertion from a buffer that is overwritten right after —
// checks the invariants after every step, and the contents against a map model.
func TestTableInvariantsUnderChurn(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st, other := NewState(), NewState()
		var keyBuf []byte
		model := map[string]map[string]float64{}
		tabOf := func(name string) map[string]float64 {
			if model[name] == nil {
				model[name] = map[string]float64{}
			}
			return model[name]
		}
		for op := 0; op < 3000; op++ {
			name := fmt.Sprintf("t%d", rng.Intn(4))
			// A key universe that wraps: tables grow past several doublings
			// and deletes hit keys in the middle of long probe chains.
			cell := fmt.Sprintf("cell-%04d", rng.Intn(400))
			v := float64(rng.Intn(1000))
			switch rng.Intn(15) {
			case 14:
				// The caller's key bytes are gone the moment the call returns.
				keyBuf = append(keyBuf[:0], cell...)
				st.Table(name).AddBytes(keyBuf, v)
				tabOf(name)[cell] += v
				scribble(keyBuf)
			case 0, 1, 2:
				st.Table(name).Add(cell, v)
				tabOf(name)[cell] += v
			case 3, 4:
				st.Table(name).Set(cell, v)
				tabOf(name)[cell] = v
			case 5, 6, 7:
				if tab := st.LookupTable(name); tab != nil {
					_, had := model[name][cell]
					if tab.delete(cell) != had {
						t.Fatalf("seed %d op %d: delete(%q) disagrees with the model (%v)", seed, op, cell, had)
					}
					delete(model[name], cell)
				}
			case 8:
				if rng.Intn(8) == 0 {
					st.Table(name).clear()
					model[name] = map[string]float64{}
				}
			case 9:
				if rng.Intn(8) == 0 {
					st.ClearTable(name)
					delete(model, name)
				}
			case 10:
				// copyFrom: into whatever the destination table held before.
				src := fmt.Sprintf("t%d", rng.Intn(4))
				if s := st.LookupTable(src); s != nil && src != name {
					st.Table(name).copyFrom(s)
					model[name] = map[string]float64{}
					for k, v := range model[src] {
						model[name][k] = v
					}
				}
			case 11:
				src := fmt.Sprintf("t%d", rng.Intn(4))
				if s := st.LookupTable(src); s != nil {
					st.Table(name).AddTable(s)
					add := map[string]float64{}
					for k, v := range model[src] {
						add[k] = v
					}
					for k, v := range add {
						tabOf(name)[k] += v
					}
				}
			case 12:
				// CopyFrom a dirty state and back: every table through copyFrom.
				if rng.Intn(4) == 0 {
					other.CopyFrom(st)
					checkStateTables(t, other, fmt.Sprintf("seed %d op %d copy", seed, op))
					st.Table(name).Add(cell, 1)
					st.CopyFrom(other)
				}
			case 13:
				// Reset recycling and decode into the recycled arena: reserve
				// sizes the table, then every cell is inserted with its hash.
				if rng.Intn(4) == 0 {
					enc := st.EncodeTransfer(nil)
					st.Reset()
					checkStateTables(t, st, fmt.Sprintf("seed %d op %d recycled", seed, op))
					if err := DecodeStateInto(enc, st); err != nil {
						t.Fatalf("seed %d op %d: %v", seed, op, err)
					}
				}
			}
			ctx := fmt.Sprintf("seed %d op %d", seed, op)
			checkStateTables(t, st, ctx)
			if st.tabN != len(model) {
				t.Fatalf("%s: %d tables, model has %d", ctx, st.tabN, len(model))
			}
			for name, want := range model {
				tab := st.LookupTable(name)
				if tab.Len() != len(want) {
					t.Fatalf("%s: table %q has %d cells, model %d", ctx, name, tab.Len(), len(want))
				}
				for k, v := range want {
					if got, ok := tab.Lookup(k); !ok || got != v {
						t.Fatalf("%s: table %q cell %q = %v (%v), model %v", ctx, name, k, got, ok, v)
					}
				}
			}
		}
	}
}

func scribble(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}

// TestTableOwnsItsKeys: Set, Add and AddBytes copy the key they insert, so the
// caller may overwrite its bytes at once (a decoded tuple's strings alias a
// frame the engine recycles; an operator builds a composite key in a stack
// buffer) —
// contents and both encodings are those of a table fed ordinary strings. The
// copies are shared, not repeated, from there on: AddTable, CopyFrom and a
// decode allocate no key.
func TestTableOwnsItsKeys(t *testing.T) {
	var fed, want State
	buf := make([]byte, 0, 64)
	key := func(i int) string {
		if i%97 == 0 {
			return fmt.Sprintf("a-key-longer-than-a-quarter-of-a-chunk-%0*d", keyChunkBytes/4, i)
		}
		return fmt.Sprintf("article-%06d", i)
	}
	for i := 0; i < 3000; i++ {
		k := key(i % 1700) // the last 1300 are hits: nothing to copy
		buf = append(buf[:0], k...)
		switch i % 3 {
		case 0:
			fed.Table("w").Set(codec.Alias(buf), float64(i))
			want.Table("w").Set(k, float64(i))
		case 1:
			fed.Table("w").Add(codec.Alias(buf), 2)
			want.Table("w").Add(k, 2)
		default:
			fed.Table("w").AddBytes(buf, 3)
			want.Table("w").Add(k, 3)
		}
		scribble(buf)
		// Field names are the caller's bytes too.
		buf = append(buf[:0], "name-"...)
		buf = append(buf, byte('a'+i%5))
		fed.Add(codec.Alias(buf), 1)
		want.Add(string(buf), 1)
		scribble(buf)
	}
	checkStateTables(t, &fed, "fed from a scribbled buffer")
	if got, exp := fed.Encode(nil), want.Encode(nil); !bytes.Equal(got, exp) {
		t.Fatalf("canonical encodings differ (%d vs %d bytes)", len(got), len(exp))
	}
	if got, exp := fed.EncodeTransfer(nil), want.EncodeTransfer(nil); !bytes.Equal(got, exp) {
		t.Fatalf("transfer encodings differ (%d vs %d bytes)", len(got), len(exp))
	}
	for k, v := range want.Table("w").All() {
		if got, ok := fed.Table("w").Lookup(k); !ok || got != v {
			t.Fatalf("cell %q = %v (%v), want %v", k, got, ok, v)
		}
	}

	// A key built on the caller's stack stays there: a hit allocates nothing.
	if allocs := testing.AllocsPerRun(100, func() {
		var stack [32]byte
		fed.Table("w").AddBytes(append(stack[:0], "article-000007"...), 1)
	}); allocs != 0 {
		t.Fatalf("AddBytes of a stack-built key that is in the table: %.0f allocations, want 0", allocs)
	}

	// Stored keys are shared from table to table.
	src, sum, cp := fed.Table("w"), &Table{}, NewState()
	sum.AddTable(src)
	sum.AddTable(src)
	cp.CopyFrom(&fed)
	if allocs := testing.AllocsPerRun(10, func() {
		sum.clear()
		sum.AddTable(src)
		sum.AddTable(src)
		cp.CopyFrom(&fed)
	}); allocs != 0 {
		t.Fatalf("AddTable + CopyFrom of stored keys: %.0f allocations, want 0", allocs)
	}
}

// displacements fills a table with keys and returns the sum and the largest
// of the entries' distances from their home slots.
func displacements(keys []string) (sum, worst int) {
	var tab Table
	for _, k := range keys {
		tab.Set(k, 1)
	}
	for e, h := range tab.hashes {
		d := 0
		for i := h & tab.mask; int(tab.slots[i]&tab.mask)-1 != e; i = (i + 1) & tab.mask {
			d++
		}
		sum += d
		worst = max(worst, d)
	}
	return sum, worst
}

// TestTableHashQuality holds hashKey to what uniform hashing gives on the key
// universes the generators draw from: the hard case for a hash that eats a
// word at a time, thousands of keys of one length that differ in their last
// few bytes only. Each universe is cut to the largest table that is one insert
// short of growing, the worst load a table ever runs at (3/4). There uniform
// hashing puts an entry 1.5 slots from home on average; a hash that clusters
// these keys multiplies that.
//
// The hash seed differs from run to run, so the limits are set where uniform
// hashing itself stays below them (simulated, 20,000 tables per size): over
// all universes together the mean is within 1.5 ± 0.1 and must be ≤ 2; a
// single table of n keys scatters more the smaller it is (95 keys: 99.9 % of
// tables below 4.0; 12,287 keys: below 1.75) and gets 2 + 60/√n. The farthest
// entry is tens of slots out even under uniform hashing (median 81 at 12,287
// keys, 99.9 % below 200 at every size here), so its limit, 512, only catches
// a cluster that has swallowed a good part of a table.
func TestTableHashQuality(t *testing.T) {
	universe := func(n int, key func(i int) string) []string {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = key(i)
		}
		return keys
	}
	airport := func(i int) string { return fmt.Sprintf("A%02d", i) }
	total, totalKeys := 0, 0
	for _, u := range []struct {
		name string
		keys []string
	}{
		{"rj1 articles", universe(20000, func(i int) string { return fmt.Sprintf("article-%06d", i) })},
		{"rj1 editors", universe(5000, func(i int) string { return fmt.Sprintf("editor-%04d", i) })},
		{"rj1 geo cells", universe(100, func(i int) string { return fmt.Sprintf("dk-%02d", i) })},
		{"rj3 planes", universe(2000, func(i int) string { return fmt.Sprintf("N%05d", i) })},
		{"rj3 routes", universe(3600, func(i int) string { return airport(i/60) + "-" + airport(i%60) })},
		{"rj3 plane|year", universe(20000, func(i int) string { return fmt.Sprintf("N%05d|%d", i/10, 2004+i%10) })},
	} {
		slots := minTableSlots
		for 3*(2*slots)/4-1 <= len(u.keys) {
			slots *= 2
		}
		n := 3*slots/4 - 1 // one insert short of growing
		sum, worst := displacements(u.keys[:n])
		mean, limit := float64(sum)/float64(n), 2+60/math.Sqrt(float64(n))
		t.Logf("%-15s %5d keys in %5d slots: mean displacement %.2f (limit %.2f), max %d", u.name, n, slots, mean, limit, worst)
		if mean > limit || worst > 512 {
			t.Errorf("%s: %d keys in %d slots sit %.2f slots from home on average (uniform 1.5, limit %.2f), the farthest %d (limit 512)",
				u.name, n, slots, mean, limit, worst)
		}
		total, totalKeys = total+sum, totalKeys+n
	}
	if mean := float64(total) / float64(totalKeys); mean > 2 {
		t.Errorf("all universes: %d keys sit %.2f slots from home on average (uniform 1.5, limit 2)", totalKeys, mean)
	}
}

// TestAddTableMatchesMapModel: AddTable is the loop of Adds it replaces — the
// same cells in the same storage order, hence the same bytes in either
// encoding — for overlapping and disjoint key sets, an empty and a nil source,
// a source that grows the receiver several times mid-merge, and the receiver
// itself.
func TestAddTableMatchesMapModel(t *testing.T) {
	fill := func(st *State, name string, lo, hi int) {
		tab := st.Table(name)
		for i := lo; i < hi; i++ {
			tab.Add(fmt.Sprintf("article-%06d", i), float64(i+1))
		}
	}
	for _, c := range []struct {
		name             string
		dstLo, dstHi     int
		srcLo, srcHi     int
		nilSrc, aliasSrc bool
	}{
		{name: "overlapping", dstLo: 0, dstHi: 300, srcLo: 150, srcHi: 450},
		{name: "disjoint", dstLo: 0, dstHi: 300, srcLo: 1000, srcHi: 1300},
		{name: "empty source", dstLo: 0, dstHi: 300},
		{name: "nil source", dstLo: 0, dstHi: 300, nilSrc: true},
		{name: "empty receiver", srcLo: 0, srcHi: 300},
		{name: "source grows the receiver", dstLo: 0, dstHi: 4, srcLo: 2, srcHi: 5000},
		{name: "receiver is the source", dstLo: 0, dstHi: 300, aliasSrc: true},
	} {
		got, want, from := NewState(), NewState(), NewState()
		fill(got, "w", c.dstLo, c.dstHi)
		fill(want, "w", c.dstLo, c.dstHi)
		fill(from, "w", c.srcLo, c.srcHi)
		src := from.Table("w")
		switch {
		case c.nilSrc:
			src = nil
		case c.aliasSrc:
			src = got.Table("w")
		}
		// The reference: the hand-written loop, over a copy of the source as it
		// is before the merge (the aliased case must not range over its output).
		ref := want.Table("w")
		var cells Table
		cells.copyFrom(src)
		for k, v := range cells.All() {
			ref.Add(k, v)
		}
		got.Table("w").AddTable(src)
		checkTable(t, got.Table("w"), c.name)
		if !bytes.Equal(got.Encode(nil), want.Encode(nil)) {
			t.Errorf("%s: canonical encodings differ", c.name)
		}
		if !bytes.Equal(got.EncodeTransfer(nil), want.EncodeTransfer(nil)) {
			t.Errorf("%s: storage order differs", c.name)
		}
		if got.Size() != want.Size() || got.Size() != len(got.Encode(nil)) {
			t.Errorf("%s: Size %d, reference %d, encoded %d", c.name, got.Size(), want.Size(), len(got.Encode(nil)))
		}
	}
}

// TestDiffRoundTripAfterChurn: Diff, DiffSize and Apply probe one table with
// the hashes another one stores. The states here went through deletes, clear,
// ClearTable and copies first, so those hashes were moved by swap-remove and
// written by every path there is: Apply(Diff(a, b)) on a must encode as b, and
// DiffSize must be the length of the encoded delta, in both directions.
func TestDiffRoundTripAfterChurn(t *testing.T) {
	churned := func(rng *rand.Rand) *State {
		st := NewState()
		for op := 0; op < 1500; op++ {
			tab := st.Table(fmt.Sprintf("w%d", rng.Intn(3)))
			cell := fmt.Sprintf("article-%06d", rng.Intn(250))
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				tab.Add(cell, float64(rng.Intn(5)))
			case 4:
				tab.Set(cell, float64(rng.Intn(5)))
			case 5, 6, 7:
				tab.delete(cell)
			case 8:
				if rng.Intn(40) == 0 {
					tab.clear()
				}
			case 9:
				if rng.Intn(40) == 0 {
					st.ClearTable(fmt.Sprintf("w%d", rng.Intn(3)))
				}
			}
		}
		return st
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := churned(rng), churned(rng)
		if seed%2 == 1 {
			// Related states, as a tip and its live state are: b is a plus churn.
			b = a.Clone()
			for i := 0; i < 60; i++ {
				tab := b.Table(fmt.Sprintf("w%d", rng.Intn(3)))
				if cell := fmt.Sprintf("article-%06d", rng.Intn(250)); rng.Intn(3) == 0 {
					tab.delete(cell)
				} else {
					tab.Add(cell, 1)
				}
			}
		}
		for _, dir := range [][2]*State{{a, b}, {b, a}} {
			from, to := dir[0], dir[1]
			d := Diff(from, to)
			enc := d.Encode(nil)
			if got := DiffSize(from, to); got != len(enc) || d.Size() != len(enc) {
				t.Fatalf("seed %d: DiffSize %d, Delta.Size %d, encoded %d bytes", seed, got, d.Size(), len(enc))
			}
			onto := from.Clone()
			d.Apply(onto)
			checkStateTables(t, onto, fmt.Sprintf("seed %d applied", seed))
			if !bytes.Equal(onto.Encode(nil), to.Encode(nil)) {
				t.Fatalf("seed %d: Apply(Diff(a, b)) on a does not encode as b", seed)
			}
			if DiffSize(onto, to) != emptyDeltaSize {
				t.Fatalf("seed %d: states equal after Apply, DiffSize %d", seed, DiffSize(onto, to))
			}
		}
	}
}
