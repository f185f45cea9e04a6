package statestore

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/codec"
)

// rawTable is one table of a hand-written state payload: its cells are
// written in exactly this order, repeats included.
type rawTable struct {
	name  string
	cells []numEntry
}

// canonTables lists st's tables as the canonical encoding orders them.
func canonTables(st *State) []rawTable {
	var ts []rawTable
	o := new(keyOrder)
	for _, sym := range st.liveSyms(kTab, true, o) {
		t := st.tabs[sym]
		rt := rawTable{name: st.names[sym]}
		for _, ei := range t.order(o) {
			rt.cells = append(rt.cells, numEntry{t.keys[ei], t.vals[ei]})
		}
		ts = append(ts, rt)
	}
	return ts
}

// rawState writes st's counters canonically and then the given tables as they
// stand — payloads no encoder writes and the decoder must read.
func rawState(st *State, tables []rawTable) []byte {
	scalars := st.Clone()
	for _, rt := range canonTables(st) {
		scalars.ClearTable(rt.name)
	}
	b := scalars.Encode(nil)
	b = b[:len(b)-1] // the zero table count
	b = codec.AppendUvarint(b, uint64(len(tables)))
	for _, rt := range tables {
		b = codec.AppendString(b, rt.name)
		b = codec.AppendUvarint(b, uint64(len(rt.cells)))
		for _, c := range rt.cells {
			b = codec.AppendString(b, c.k)
			b = codec.AppendFloat64(b, c.v)
		}
	}
	return b
}

// shapeNames names the orders no encoder writes, as stateShapes and
// deltaShapes list them.
var shapeNames = []string{"reversed", "duplicate key", "table twice"}

// stateShapes writes st with every table's keys descending, with one key
// written twice (the later value is st's) and with one table written twice
// (the later cells are st's). Each decodes to st.
func stateShapes(st *State) [][]byte {
	reversed := canonTables(st)
	for i := range reversed {
		slices.Reverse(reversed[i].cells)
	}
	dupKey := canonTables(st)
	for i := range dupKey {
		if n := len(dupKey[i].cells); n > 0 {
			c := dupKey[i].cells[n/2]
			dupKey[i].cells = slices.Insert(dupKey[i].cells, n/2, numEntry{c.k, c.v + 1})
			break
		}
	}
	twice := canonTables(st)
	if len(twice) > 0 {
		stale := rawTable{name: twice[0].name, cells: []numEntry{{"stale", 1}}}
		for _, c := range twice[0].cells {
			stale.cells = append(stale.cells, numEntry{c.k, c.v - 1})
		}
		twice = slices.Insert(twice, 0, stale)
	}
	return [][]byte{rawState(st, reversed), rawState(st, dupKey), rawState(st, twice)}
}

// TestStateTwoOrdersOneDecoder: over random live states with churn — inserts,
// deletes, dropped tables, arenas recycled by Reset — the transfer-order
// bytes are Size() long and decode to a state whose canonical bytes are the
// source's, and so do the orders no encoder writes: keys descending, a key
// twice, a table twice.
func TestStateTwoOrdersOneDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	st, got := NewState(), NewState()
	for i := 0; i < 300; i++ {
		fill(rng, st, 1+rng.Intn(40))
		for r := rng.Intn(4); r > 0; r-- {
			mutate(rng, st)
		}
		canon := st.Encode(nil)
		transfer := st.EncodeTransfer(nil)
		if len(transfer) != st.Size() || len(canon) != st.Size() {
			t.Fatalf("iter %d: Size()=%d, transfer %d B, canonical %d B", i, st.Size(), len(transfer), len(canon))
		}
		names := append([]string{"transfer", "canonical"}, shapeNames...)
		for k, payload := range append([][]byte{transfer, canon}, stateShapes(st)...) {
			if err := DecodeStateInto(payload, got); err != nil {
				t.Fatalf("iter %d: %s order: %v", i, names[k], err)
			}
			if !statesEqual(st, got) || !bytes.Equal(got.Encode(nil), canon) {
				t.Fatalf("iter %d: %s order decodes to a different state", i, names[k])
			}
			if got.Size() != st.Size() {
				t.Fatalf("iter %d: %s order: decoded Size()=%d, want %d", i, names[k], got.Size(), st.Size())
			}
		}
		// Recycle both arenas, each into the other's role.
		st.Reset()
		got.Reset()
		st, got = got, st
	}
}

// TestDeltaTwoOrdersOneDecoder is the same for Delta: transfer-order bytes —
// the delta as DiffInto left it — are Size() long and decode to a delta with
// the source's canonical bytes, and the orders no encoder writes apply alike.
func TestDeltaTwoOrdersOneDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var d, d2 Delta
	for i := 0; i < 300; i++ {
		old := randState(rng, 1+rng.Intn(40))
		cur := old.Clone()
		for r := 1 + rng.Intn(3); r > 0; r-- {
			mutate(rng, cur)
		}
		DiffInto(&d, old, cur)
		transfer := d.EncodeTransfer(nil)
		if len(transfer) != d.Size() {
			t.Fatalf("iter %d: Size()=%d, transfer %d B", i, d.Size(), len(transfer))
		}
		canon := d.Encode(nil)
		names := append([]string{"transfer", "canonical"}, shapeNames...)
		for k, payload := range append([][]byte{transfer, canon}, deltaShapes(&d)...) {
			rest, err := DecodeDeltaInto(payload, &d2)
			if err != nil || len(rest) != 0 {
				t.Fatalf("iter %d: %s order: %v (%d trailing)", i, names[k], err, len(rest))
			}
			got := old.Clone()
			d2.Apply(got)
			if !statesEqual(got, cur) {
				t.Fatalf("iter %d: %s order applies to a different state", i, names[k])
			}
			if k == 0 && !bytes.Equal(d2.Encode(nil), canon) {
				t.Fatalf("iter %d: transfer order decodes to a different delta", i)
			}
		}
	}
}

// deltaShapes sorts d and writes it with cells descending, with one cell set
// twice (the later value is d's) and with one table's cells set twice (the
// later values are d's). Each applies as d does. It leaves d sorted.
func deltaShapes(d *Delta) [][]byte {
	d.Encode(nil)
	for i := range d.tabSet {
		slices.Reverse(d.tabSet[i].cells)
	}
	shapes := [][]byte{d.EncodeTransfer(nil)}
	for i := range d.tabSet {
		slices.Reverse(d.tabSet[i].cells)
	}
	dup := d.EncodeTransfer(nil)
	for i := range d.tabSet {
		if e := &d.tabSet[i]; len(e.cells) > 0 {
			m := len(e.cells) / 2
			e.cells = slices.Insert(e.cells, m, numEntry{e.cells[m].k, e.cells[m].v + 1})
			dup = d.EncodeTransfer(nil)
			e.cells = slices.Delete(e.cells, m, m+1)
			break
		}
	}
	twice := d.EncodeTransfer(nil)
	if len(d.tabSet) > 0 {
		stale := tabSetEntry{name: d.tabSet[0].name}
		for _, c := range d.tabSet[0].cells {
			stale.cells = append(stale.cells, numEntry{c.k, c.v - 1})
		}
		d.tabSet = slices.Insert(d.tabSet, 0, stale)
		twice = d.EncodeTransfer(nil)
		d.tabSet = slices.Delete(d.tabSet, 0, 1)
	}
	return append(shapes, dup, twice)
}

// TestDeltaDecodeRejectsCellDelTableTwice: the one order the delta decoder
// does insist on, which is why the encoder sorts those names in either order.
func TestDeltaDecodeRejectsCellDelTableTwice(t *testing.T) {
	old := NewState()
	for _, name := range []string{"b", "a"} { // the diff lists them as interned
		old.Table(name).Set("x", 1)
		old.Table(name).Set("y", 1)
	}
	cur := old.Clone()
	cur.Table("b").delete("x")
	cur.Table("a").delete("x")
	d := Diff(old, cur)
	if _, err := DecodeDeltaInto(d.EncodeTransfer(nil), &Delta{}); err != nil {
		t.Fatalf("transfer order with two cell-del tables: %v", err)
	}
	d.tabCellDel = append(d.tabCellDel, d.tabCellDel[0])
	if _, err := DecodeDeltaInto(d.EncodeTransfer(nil), &Delta{}); err == nil {
		t.Fatal("a table named twice among the cell deletions decoded")
	}
}

// TestDecodeAllocatesPerPayload: decoding a canonical payload into a recycled
// state allocates the copy its cell keys are cut from and the field names —
// nothing per cell, and no table grows on the way.
func TestDecodeAllocatesPerPayload(t *testing.T) {
	enc := liveWindowState().Encode(nil)
	dst := NewState()
	if err := DecodeStateInto(enc, dst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := DecodeStateInto(enc, dst); err != nil {
			t.Fatal(err)
		}
	})
	if fields := 1.0 + 6; allocs > 1+fields {
		t.Fatalf("decode into a recycled state: %.0f allocations for %d cells, want at most %.0f", allocs, 6*1500, 1+fields)
	}
}
