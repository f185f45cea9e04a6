package statestore

import (
	"fmt"
	"math"

	"repro/internal/codec"
)

// numEntry is one key/value pair of a delta section.
type numEntry struct {
	k string
	v float64
}

// tabSetEntry is one table's changed cells; tabDelEntry one table's removed
// cells. Their inner slices are retained across Reset so a pooled Delta
// reaches zero-alloc steady state.
type tabSetEntry struct {
	name  string
	cells []numEntry
	// applied: Tip.Cut wrote the cells into the tip as it found them, and
	// leaves the entry to the rest of the delta's application.
	applied bool
}

type tabDelEntry struct {
	name string
	keys []string
}

// Delta is the exact semantic difference between two States: applying a
// Delta of new against old to (a clone of) old yields a state equal
// to new, field for field. Values are absolute (the new value, not an
// increment), so floating-point application is exact; dropped tables and
// removed cells are listed explicitly, which summing one state into another
// cannot express. Counters are never deleted (see State): their section is
// retired. Deltas are what the incremental store chains and what
// checkpoint-assisted migration ships synchronously.
//
// A Delta is flat storage, not maps: each section is a dense slice that
// Reset truncates in place, so one Delta reused across checkpoint cadences
// (Tip.DiffInto) computes, encodes, and applies without allocating. The zero
// value is an empty delta.
type Delta struct {
	numSet     []numEntry
	tabSet     []tabSetEntry
	tabCellDel []tabDelEntry
	tabDel     []string
}

// Reset empties the delta for reuse, keeping every backing slice (including
// the per-table inner slices).
func (d *Delta) Reset() {
	clear(d.numSet)
	d.numSet = d.numSet[:0]
	for i := range d.tabSet {
		e := &d.tabSet[i]
		e.name, e.applied = "", false
		clear(e.cells)
		e.cells = e.cells[:0]
	}
	d.tabSet = d.tabSet[:0]
	for i := range d.tabCellDel {
		e := &d.tabCellDel[i]
		e.name = ""
		clear(e.keys)
		e.keys = e.keys[:0]
	}
	d.tabCellDel = d.tabCellDel[:0]
	clear(d.tabDel)
	d.tabDel = d.tabDel[:0]
}

// growTabSet appends a tabSet entry for name, reusing a retained inner
// slice when the backing array has one.
func (d *Delta) growTabSet(name string) *tabSetEntry {
	if len(d.tabSet) < cap(d.tabSet) {
		d.tabSet = d.tabSet[:len(d.tabSet)+1]
	} else {
		d.tabSet = append(d.tabSet, tabSetEntry{})
	}
	e := &d.tabSet[len(d.tabSet)-1]
	e.name, e.applied = name, false
	e.cells = e.cells[:0]
	return e
}

func (d *Delta) growTabCellDel(name string) *tabDelEntry {
	if len(d.tabCellDel) < cap(d.tabCellDel) {
		d.tabCellDel = d.tabCellDel[:len(d.tabCellDel)+1]
	} else {
		d.tabCellDel = append(d.tabCellDel, tabDelEntry{})
	}
	e := &d.tabCellDel[len(d.tabCellDel)-1]
	e.name = name
	e.keys = e.keys[:0]
	return e
}

var emptyState State

// sameNum compares cells as their encodings: a NaN equals itself (by == the
// group would write a delta forever) and −0 differs from +0 (as their bytes do).
func sameNum(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffInto computes new − old into d (d is Reset first); with a reused d it
// allocates nothing. nil states are treated as empty. new must hold every
// counter old holds: a delta cannot delete one. Every tip and live state the
// engine pairs does, since only Reset and the decoders, which reset first,
// ever drop a counter.
//
// old is a checkpoint tip marked as tok (0: none, and then every table is
// walked whole): a table of new that tracks it yields the cells written since
// the mark that differ (changesInto), and with cut those cells are written
// into old as they are found and their entry is flagged applied. Everything
// else is walked whole and left to Apply. Without cut neither state is
// mutated.
func diffInto(d *Delta, old, new *State, tok uint64, cut bool) {
	d.Reset()
	if old == nil {
		old = &emptyState
	}
	if new == nil {
		new = &emptyState
	}
	for sym, k := range new.kind {
		name := new.names[sym]
		if k&kNum != 0 {
			if ov, ok := old.LookupNum(name); !ok || !sameNum(ov, new.numVal[sym]) {
				d.numSet = append(d.numSet, numEntry{name, new.numVal[sym]})
			}
		}
		if k&kTab != 0 {
			nt := new.tabs[sym]
			ot := old.LookupTable(name)
			if nt.tracks(tok, ot) {
				// ot has every cell it had at the mark, and no other.
				se := d.growTabSet(name)
				if se.cells, se.applied = nt.changesInto(se.cells, ot, cut), cut; len(se.cells) == 0 {
					se.name = ""
					d.tabSet = d.tabSet[:len(d.tabSet)-1]
				}
				continue
			}
			var se *tabSetEntry
			kept := 0 // cells of ot that nt still has
			for i, ck := range nt.keys {
				ov, ok := ot.lookup(ck, nt.hashes[i])
				if ok {
					kept++
				}
				if !ok || !sameNum(ov, nt.vals[i]) {
					if se == nil {
						se = d.growTabSet(name)
					}
					se.cells = append(se.cells, numEntry{ck, nt.vals[i]})
				}
			}
			if se == nil && ot == nil {
				// The table is new but has no cells. Empty tables are
				// serialized, so the delta must still create it — a
				// zero-cell entry does exactly that on Apply.
				d.growTabSet(name)
			}
			if kept < ot.Len() {
				de := d.growTabCellDel(name)
				for i, ck := range ot.keys {
					if _, ok := nt.lookup(ck, ot.hashes[i]); !ok {
						de.keys = append(de.keys, ck)
					}
				}
			}
		}
	}
	for sym, k := range old.kind {
		if name := old.names[sym]; k&kTab != 0 && new.LookupTable(name) == nil {
			d.tabDel = append(d.tabDel, name)
		}
	}
}

// Apply mutates st so that the delta of new against old, applied to a clone
// of old, produces a state equal to new. It writes into st's existing storage — applying a
// steady-state delta to a warm state allocates nothing.
func (d *Delta) Apply(st *State) { d.apply(st, false) }

// apply is Apply, skipping the table entries flagged applied when cut is set:
// the rest of a Tip.Cut.
func (d *Delta) apply(st *State, cut bool) {
	// A delta's strings are immutable (a decoded payload's, or shared with the
	// state diffInto read them from): st shares them in turn.
	for _, e := range d.numSet {
		st.setNum(st.intern(e.k, false), e.v)
	}
	for _, name := range d.tabDel {
		st.ClearTable(name)
	}
	for i := range d.tabSet {
		e := &d.tabSet[i]
		if cut && e.applied {
			continue
		}
		t := st.table(st.intern(e.name, false))
		t.ensure()
		for _, c := range e.cells {
			t.set(c.k, c.v)
		}
	}
	for i := range d.tabCellDel {
		e := &d.tabCellDel[i]
		if t := st.LookupTable(e.name); t != nil {
			for _, k := range e.keys {
				t.delete(k)
			}
		}
	}
}

// sizeStringSlice is the encoded length of appendStringSlice.
func sizeStringSlice(v []string) int {
	n := codec.SizeUvarint(uint64(len(v)))
	for _, s := range v {
		n += codec.SizeString(s)
	}
	return n
}

func sizeNumEntries(v []numEntry) int {
	n := codec.SizeUvarint(uint64(len(v)))
	for _, e := range v {
		n += codec.SizeString(e.k) + 8
	}
	return n
}

// Size returns the encoded length of the delta without building bytes:
// Size() == len(Encode(nil)) always.
func (d *Delta) Size() int {
	n := sizeNumEntries(d.numSet)
	n += 3 * codec.SizeUvarint(0) // retired: counters deleted, string registers set and deleted
	n += codec.SizeUvarint(uint64(len(d.tabSet)))
	for i := range d.tabSet {
		n += codec.SizeString(d.tabSet[i].name) + sizeNumEntries(d.tabSet[i].cells)
	}
	n += codec.SizeUvarint(uint64(len(d.tabCellDel)))
	for i := range d.tabCellDel {
		n += codec.SizeString(d.tabCellDel[i].name) + sizeStringSlice(d.tabCellDel[i].keys)
	}
	n += sizeStringSlice(d.tabDel)
	return n
}

// emptyDeltaSize is the encoded size of a delta that changes nothing (seven
// zero counts, three of them the retired sections'); diffSize returns it
// exactly when the states are equal.
const emptyDeltaSize = 7

// diffSize returns the Size of the delta diffInto would build from old to
// new, without building it — no scratch, no sorting, one lookup per cell of
// new. Removed cells are not searched for: a table's keys are distinct, so
// what old has and new lacks is old's cells minus those a lookup from new
// found, in count and in key bytes alike. It is the per-period residency
// signal (the engine sizes every checkpointed group at every period
// boundary, through Tip.Measure) and what the checkpoint write rule decides
// on (Tip.Cut).
//
// old is a checkpoint tip marked as tok (0: none, and then every table is
// walked whole): a table of new that tracks it is sized by its running count
// of changed cells, brought up to date from the cells written since the last
// sizing (Table.changed); the rest is walked whole.
func diffSize(old, new *State, tok uint64) int {
	if old == nil {
		old = &emptyState
	}
	if new == nil {
		new = &emptyState
	}
	numSetN, numSetB := 0, 0
	tabSetN, tabSetB := 0, 0
	cellDelN, cellDelB := 0, 0
	for sym, k := range new.kind {
		name := new.names[sym]
		if k&kNum != 0 {
			if ov, ok := old.LookupNum(name); !ok || !sameNum(ov, new.numVal[sym]) {
				numSetN++
				numSetB += codec.SizeString(name) + 8
			}
		}
		if k&kTab != 0 {
			nt := new.tabs[sym]
			ot := old.LookupTable(name)
			setN, setB := 0, 0
			keptN, keptB := 0, 0 // cells of ot that nt still has, and their key bytes
			if nt.tracks(tok, ot) {
				// ot has every cell it had at the mark, and no other.
				setN, setB = nt.changed(ot)
				keptN, keptB = ot.Len(), ot.encBytes-8*ot.Len()
			} else {
				for i, ck := range nt.keys {
					ov, ok := ot.lookup(ck, nt.hashes[i])
					if ok {
						keptN++
						keptB += codec.SizeString(ck)
					}
					if !ok || !sameNum(ov, nt.vals[i]) {
						setN++
						setB += codec.SizeString(ck) + 8
					}
				}
			}
			if setN > 0 || ot == nil {
				// A table new to `new` ships even with zero changed cells
				// (see diffInto) — its entry is the name plus a zero count.
				tabSetN++
				tabSetB += codec.SizeString(name) + codec.SizeUvarint(uint64(setN)) + setB
			}
			if delN := ot.Len() - keptN; delN > 0 {
				// encBytes is the sum of SizeString(key)+8 over ot's cells.
				delB := ot.encBytes - 8*ot.Len() - keptB
				cellDelN++
				cellDelB += codec.SizeString(name) + codec.SizeUvarint(uint64(delN)) + delB
			}
		}
	}
	tabDelN, tabDelB := 0, 0
	for sym, k := range old.kind {
		if name := old.names[sym]; k&kTab != 0 && new.LookupTable(name) == nil {
			tabDelN++
			tabDelB += codec.SizeString(name)
		}
	}
	return codec.SizeUvarint(uint64(numSetN)) + numSetB +
		3*codec.SizeUvarint(0) + // retired: counters deleted, string registers set and deleted
		codec.SizeUvarint(uint64(tabSetN)) + tabSetB +
		codec.SizeUvarint(uint64(cellDelN)) + cellDelB +
		codec.SizeUvarint(uint64(tabDelN)) + tabDelB
}

// appendStringSlice appends a length-prefixed string list, sorting v in
// place first when o is given.
func appendStringSlice(b []byte, v []string, o *keyOrder) []byte {
	b = codec.AppendUvarint(b, uint64(len(v)))
	if o != nil {
		sortByKey(o, v, func(s string) string { return s })
	}
	for _, s := range v {
		b = codec.AppendString(b, s)
	}
	return b
}

func readStringSlice(dst []string, b []byte) ([]string, []byte, error) {
	n, b, err := codec.ReadUvarint(b)
	if err != nil {
		return dst, nil, err
	}
	// Every entry costs at least one length byte: a count exceeding the
	// remaining bytes is malformed, not a huge allocation.
	if n > uint64(len(b)) {
		return dst, nil, fmt.Errorf("statestore: string list claims %d entries in %d bytes", n, len(b))
	}
	for i := uint64(0); i < n; i++ {
		var s string
		if s, b, err = codec.ReadString(b); err != nil {
			return dst, nil, err
		}
		dst = append(dst, s)
	}
	return dst, b, nil
}

// Encode serializes the delta (appended to buf) in its canonical form: it
// reorders the receiver, sorting every section in place by key, so equal
// deltas have equal bytes — the form of everything the checkpoint log stores.
// Section order: NumSet, three retired sections (counters deleted, string
// registers set and deleted: always 0, their counts keep their bytes), TabSet,
// TabCellDel, TabDel.
func (d *Delta) Encode(buf []byte) []byte { return d.encode(buf, true) }

// EncodeTransfer serializes the delta as diffInto left it: the same format
// and length as Encode without sorting the entries, for bytes that are decoded
// once and dropped (a delta travelling shard to shard). DecodeDeltaInto reads
// both.
func (d *Delta) EncodeTransfer(buf []byte) []byte { return d.encode(buf, false) }

// encode sorts every section by key with keyOrder, which needs no stable sort:
// the keys of a section are distinct (a diff visits each field and cell once;
// Apply makes a decoded duplicate last-one-wins, which no encoder produces).
func (d *Delta) encode(buf []byte, sorted bool) []byte {
	o := keyOrders.Get().(*keyOrder)
	defer keyOrders.Put(o)
	var canon *keyOrder // the sections in key order, or else as they stand
	if sorted {
		canon = o
		sortByKey(o, d.numSet, func(e numEntry) string { return e.k })
		sortByKey(o, d.tabSet, func(e tabSetEntry) string { return e.name })
	}
	// The decoder rejects a table named twice among the cell deletions by
	// asking for ascending names, so these few names are sorted in either order.
	sortByKey(o, d.tabCellDel, func(e tabDelEntry) string { return e.name })
	buf = codec.AppendUvarint(buf, uint64(len(d.numSet)))
	for _, e := range d.numSet {
		buf = codec.AppendString(buf, e.k)
		buf = codec.AppendFloat64(buf, e.v)
	}
	buf = codec.AppendUvarint(buf, 0) // retired: counters deleted
	buf = codec.AppendUvarint(buf, 0) // retired: string registers set
	buf = codec.AppendUvarint(buf, 0) // retired: string registers deleted
	buf = codec.AppendUvarint(buf, uint64(len(d.tabSet)))
	for i := range d.tabSet {
		e := &d.tabSet[i]
		buf = codec.AppendString(buf, e.name)
		if sorted {
			sortByKey(o, e.cells, func(c numEntry) string { return c.k })
		}
		buf = codec.AppendUvarint(buf, uint64(len(e.cells)))
		for _, c := range e.cells {
			buf = codec.AppendString(buf, c.k)
			buf = codec.AppendFloat64(buf, c.v)
		}
	}
	buf = codec.AppendUvarint(buf, uint64(len(d.tabCellDel)))
	for i := range d.tabCellDel {
		e := &d.tabCellDel[i]
		buf = codec.AppendString(buf, e.name)
		buf = appendStringSlice(buf, e.keys, canon)
	}
	buf = appendStringSlice(buf, d.tabDel, canon)
	return buf
}

// DecodeDeltaInto decodes a delta written by Encode or EncodeTransfer into an
// existing delta (Reset first), reusing its storage, and returns the remaining
// bytes. All count and length fields are validated against the remaining input
// before allocation.
func DecodeDeltaInto(b []byte, d *Delta) ([]byte, error) {
	d.Reset()
	n, b, err := codec.ReadUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("statestore: delta numset: %w", err)
	}
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("statestore: delta claims %d numset entries in %d bytes", n, len(b))
	}
	for i := uint64(0); i < n; i++ {
		var k string
		var v float64
		if k, b, err = codec.ReadString(b); err != nil {
			return nil, fmt.Errorf("statestore: delta numset: %w", err)
		}
		if v, b, err = codec.ReadFloat64(b); err != nil {
			return nil, fmt.Errorf("statestore: delta numset: %w", err)
		}
		d.numSet = append(d.numSet, numEntry{k, v})
	}
	if b, err = readRetired(b, "delta numdel"); err != nil {
		return nil, err
	}
	if b, err = readRetired(b, "delta strset"); err != nil {
		return nil, err
	}
	if b, err = readRetired(b, "delta strdel"); err != nil {
		return nil, err
	}
	if n, b, err = codec.ReadUvarint(b); err != nil {
		return nil, fmt.Errorf("statestore: delta tabset: %w", err)
	}
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("statestore: delta claims %d tabset entries in %d bytes", n, len(b))
	}
	for i := uint64(0); i < n; i++ {
		var name string
		if name, b, err = codec.ReadString(b); err != nil {
			return nil, fmt.Errorf("statestore: delta tabset name: %w", err)
		}
		e := d.growTabSet(name)
		var cells uint64
		if cells, b, err = codec.ReadUvarint(b); err != nil {
			return nil, fmt.Errorf("statestore: delta tabset %q: %w", name, err)
		}
		if cells > uint64(len(b)) {
			return nil, fmt.Errorf("statestore: delta table %q claims %d cells in %d bytes", name, cells, len(b))
		}
		for j := uint64(0); j < cells; j++ {
			var k string
			var v float64
			if k, b, err = codec.ReadString(b); err != nil {
				return nil, fmt.Errorf("statestore: delta tabset %q: %w", name, err)
			}
			if v, b, err = codec.ReadFloat64(b); err != nil {
				return nil, fmt.Errorf("statestore: delta tabset %q: %w", name, err)
			}
			e.cells = append(e.cells, numEntry{k, v})
		}
	}
	if n, b, err = codec.ReadUvarint(b); err != nil {
		return nil, fmt.Errorf("statestore: delta tabcelldel count: %w", err)
	}
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("statestore: delta claims %d cell-del tables in %d bytes", n, len(b))
	}
	for i := uint64(0); i < n; i++ {
		var name string
		if name, b, err = codec.ReadString(b); err != nil {
			return nil, fmt.Errorf("statestore: delta tabcelldel name: %w", err)
		}
		// Canonical encodings sort table names; requiring strict ascent here
		// rejects duplicates in one comparison instead of a scan.
		if i > 0 && d.tabCellDel[len(d.tabCellDel)-1].name >= name {
			return nil, fmt.Errorf("statestore: delta duplicate or out-of-order cell-del table %q", name)
		}
		e := d.growTabCellDel(name)
		if e.keys, b, err = readStringSlice(e.keys, b); err != nil {
			return nil, fmt.Errorf("statestore: delta tabcelldel %q: %w", name, err)
		}
	}
	if d.tabDel, b, err = readStringSlice(d.tabDel, b); err != nil {
		return nil, fmt.Errorf("statestore: delta tabdel: %w", err)
	}
	return b, nil
}
