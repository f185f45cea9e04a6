package statestore

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/codec"
)

// Change tracking: what a live table records of its own writes, so that the
// three readers of "live against its checkpoint tip" — the barrier's sizing
// (Tip.Measure), the checkpoint cut (Tip.Cut) and a delta move
// (Tip.DiffInto) — visit the cells written since the state last equalled its
// tip instead of every cell.
//
// A tip marks the live state whenever the two are equal: at every Cut, and
// where a holder adopts a tip beside a copy of it (Tip.Track). Each mark draws
// a fresh number, which the tip and every table of the state keep (tok). A
// reader trusts a table's record only while the two numbers match. A state
// recycled by Reset, a state another tip cut since, and a table created
// after the mark fail that test, and so does a table that lost a cell since
// the mark (ClearTable, or a delta's cell deletion applied to it): its record
// no longer says which of the tip's cells are gone. Such a table is walked
// whole, as before. A reader returns exactly what the whole walk returns, byte
// for byte; only its cost changes.

// tipMarks numbers marks across the process, so no two are alike.
var tipMarks atomic.Uint64

// changes is a table's record of what was written since its mark, one bit
// per entry. Entry indexes are stable in between: inserts append, and the one
// operation that moves an entry (delete) ends the record.
type changes struct {
	// tok is the mark the record runs from (0: the table records nothing).
	tok uint64
	// fresh has bit i set once entry i is written after the last sizing (or
	// the mark); dirty has it once entry i was written between the mark and
	// the last sizing. Their union is the cells that may differ from the tip,
	// in storage order.
	fresh, dirty []uint64
	// differs has bit i set when entry i differed from the tip at the last
	// sizing; setN and setB count those cells and their encoded bytes.
	differs    []uint64
	setN, setB int
}

// wrote notes a write to entry ei: one comparison, and a bit set while the
// table tracks a tip.
func (t *Table) wrote(ei int32) {
	if t.tok != 0 {
		t.fresh[ei>>6] |= 1 << (ei & 63)
	}
}

// inserted notes the entry an insert appended, widening the record to it.
func (t *Table) inserted() {
	ei := len(t.keys) - 1
	if ei>>6 == len(t.fresh) {
		t.fresh = append(t.fresh, 0)
		t.dirty = append(t.dirty, 0)
		t.differs = append(t.differs, 0)
	}
	t.fresh[ei>>6] |= 1 << (ei & 63)
}

// mark starts a record at tok: t equals the tip's table of its name now.
func (t *Table) mark(tok uint64) {
	t.tok = tok
	n := (len(t.keys) + 63) / 64
	t.fresh, t.dirty, t.differs = zeroBits(t.fresh, n), zeroBits(t.dirty, n), zeroBits(t.differs, n)
	t.setN, t.setB = 0, 0
}

// zeroBits returns n zero words in b's array, if it has room.
func zeroBits(b []uint64, n int) []uint64 {
	b = slices.Grow(b[:0], n)[:n]
	clear(b)
	return b
}

// tracks reports whether t's record runs from tok, the mark of the tip whose
// table of t's name is ot.
func (t *Table) tracks(tok uint64, ot *Table) bool {
	return tok != 0 && t.tok == tok && ot != nil
}

// inTip returns the index of entry ei's key in ot (-1 if absent) and, for an
// absent key, the slot to insert it at. It tries ei itself first: a tip cut
// from t shares t's storage order and key strings, so the comparison is
// mostly one of two equal pointers.
func (t *Table) inTip(ot *Table, ei int32) (int32, uint32) {
	if int(ei) < len(ot.keys) && ot.keys[ei] == t.keys[ei] {
		return ei, 0
	}
	if ot.slots == nil {
		return -1, 0
	}
	slot, oi := ot.probe(t.keys[ei], t.hashes[ei])
	return oi, slot
}

// changed returns how many of t's cells differ from ot, the tip's table, and
// their encoded bytes (SizeString(key)+8 each): a running count, brought up to
// date from the entries written since the last call.
func (t *Table) changed(ot *Table) (n, b int) {
	for w, word := range t.fresh {
		if word == 0 {
			continue
		}
		t.fresh[w], t.dirty[w] = 0, t.dirty[w]|word
		for ; word != 0; word &= word - 1 {
			bit := word & -word
			ei := int32(w<<6 + bits.TrailingZeros64(word))
			oi, _ := t.inTip(ot, ei)
			now := oi < 0 || !sameNum(ot.vals[oi], t.vals[ei])
			if was := t.differs[w]&bit != 0; now != was {
				sz := codec.SizeString(t.keys[ei]) + 8
				if now {
					t.differs[w] |= bit
					t.setN, t.setB = t.setN+1, t.setB+sz
				} else {
					t.differs[w] &^= bit
					t.setN, t.setB = t.setN-1, t.setB-sz
				}
			}
		}
	}
	return t.setN, t.setB
}

// changesInto appends to cells those of t that differ from ot, the tip's
// table, in t's storage order: the cells DiffInto's walk of t finds, read from
// the entries written since the mark. With apply it also writes each into ot,
// at the entry's own index where ot's order still matches t's.
func (t *Table) changesInto(cells []numEntry, ot *Table, apply bool) []numEntry {
	if apply {
		ot.ensure()
	}
	for w, word := range t.dirty {
		for word |= t.fresh[w]; word != 0; word &= word - 1 {
			ei := int32(w<<6 + bits.TrailingZeros64(word))
			k, v := t.keys[ei], t.vals[ei]
			oi, slot := t.inTip(ot, ei)
			if oi >= 0 && sameNum(ot.vals[oi], v) {
				continue
			}
			cells = append(cells, numEntry{k, v})
			switch {
			case !apply:
			case oi >= 0:
				ot.vals[oi] = v
				ot.wrote(oi)
			default:
				ot.insertAt(slot, k, t.hashes[ei], v)
			}
		}
	}
	return cells
}

// Track tells the tip that cur, the live state its holder keeps beside it,
// equals the tip's state now, as where a holder adopts a tip together with a
// copy of it. From here on Measure, Cut and DiffInto of cur read only what
// cur's tables take after this call. Cut marks the state it cuts itself.
func (t *Tip) Track(cur *State) {
	t.tok = tipMarks.Add(1)
	for sym, k := range cur.kind {
		if k&kTab != 0 {
			cur.tabs[sym].mark(t.tok)
		}
	}
}
