package statestore

import (
	"hash/maphash"
	"slices"

	"repro/internal/codec"
)

// Table is one named table of a key group's state: an open-addressed hash
// from cell key to float64, replacing the map[string]float64 of earlier
// versions. The layout is the commTable idiom: entries live densely in
// parallel keys/vals/hashes arrays (cheap iteration, cheap clear), and a
// power-of-two slot array maps key hashes to entry indexes by linear probing.
// A key is hashed once, when it enters the table: the hash stays beside the
// entry, so growing, deleting, copying and every walk from one table into
// another (AddTable, DiffSize, DiffInto) reuse it. Deletion is tombstone-free —
// the dense entry is swap-removed and the probe chain repaired by backward
// shifting — so long delete-heavy lifetimes never degrade probes. Clear keeps
// every backing array: a per-period window flush allocates nothing, a refill
// only the chunks its keys are copied to.
//
// Iteration order is storage order — insertion order, with a deleted entry's
// place taken by the last — and never depends on the hash; canonical
// serialization sorts.
//
// A table owns its keys: Set, Add and AddBytes copy a key when they insert it
// (a hit copies nothing), so the caller's may alias a buffer it reuses right
// after — a frame of the receive path, a stack buffer. The copies go to chunks
// that are never rewritten, which makes a stored key an ordinary immutable
// string: All hands it out, AddTable, CopyFrom, Diff and the decoders share it.
// A chunk lives while any key in it is referenced; delete and clear give nothing
// back, so a delete-heavy table that is never cleared holds one per survivor.
type Table struct {
	keys   []string
	chunk  []byte // tail of the key chunk inserts append to
	vals   []float64
	hashes []uint32 // hashKey(keys[i])
	// slots holds 0 for an empty slot, else the entry index + 1 in the bits
	// of mask and, above them, the bits of the entry's hash that mask leaves
	// out (the rest of the hash chose the home slot): a probe passes over a
	// slot whose tag differs without reading the entry's key. The index fits
	// because the table grows at 3/4 load.
	slots []uint32
	mask  uint32
	// encBytes is the encoded size of the cells (sum of SizeString(key)+8),
	// maintained incrementally so encodedSize is O(1). Cell values are
	// fixed-width floats, so only insertion and removal change it.
	encBytes int
	// owner, when the table belongs to a State, is notified on any
	// size-changing mutation so the State's cached Size() stays honest.
	// Scratch and standalone tables have no owner.
	owner *State
	// changes records which entries were written while the table tracks a
	// checkpoint tip (track.go); a write to a table that does not costs one
	// comparison.
	changes
}

// tableSeed keys hashKey for the life of the process.
var tableSeed = maphash.MakeSeed()

// hashKey is the hash of every table in this package (cells and a State's
// field names): the runtime's word-at-a-time string hash under one seed per
// process. It places keys in slots and nothing else — no iteration order,
// encoding, delta or checkpoint depends on it, and it never crosses a wire —
// so it may differ from process to process, unlike codec.Hash, which
// partitions keys into key groups and must be the same everywhere.
func hashKey(s string) uint32 {
	return uint32(maphash.String(tableSeed, s))
}

const minTableSlots = 8

// probe returns the slot where k, whose hash is h, lives or would be
// inserted, and the entry index holding k (-1 if absent). Must not be called
// with nil slots.
func (t *Table) probe(k string, h uint32) (uint32, int32) {
	mask := t.mask
	tag := h &^ mask
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return i, -1
		}
		if s&^mask == tag {
			if e := int32(s&mask) - 1; t.keys[e] == k {
				return i, e
			}
		}
	}
}

func (t *Table) ensure() {
	if t.slots == nil {
		t.slots = make([]uint32, minTableSlots)
		t.mask = minTableSlots - 1
	}
}

// grow doubles the slot array and places every dense entry in it.
func (t *Table) grow() {
	t.slots = make([]uint32, 2*len(t.slots))
	t.mask = uint32(len(t.slots) - 1)
	t.place()
}

// place fills the slot array, which must be clear, from the stored hashes:
// the entries' keys are distinct, so none is read.
func (t *Table) place() {
	for ei, h := range t.hashes {
		i := h & t.mask
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = h&^t.mask | uint32(ei+1)
	}
}

// reserve readies t, which must be empty, for n cells: the slot array and the
// dense arrays are sized once, so none of the n inserts grows or rehashes.
func (t *Table) reserve(n int) {
	need := minTableSlots
	for 4*n >= 3*need {
		need *= 2
	}
	if need > len(t.slots) {
		t.slots = make([]uint32, need)
		t.mask = uint32(need - 1)
	}
	t.keys = slices.Grow(t.keys, n)
	t.vals = slices.Grow(t.vals, n)
	t.hashes = slices.Grow(t.hashes, n)
}

// keyChunkBytes: one chunk allocation per ≈250 keys of the workloads' lengths.
const keyChunkBytes = 4096

// own returns a copy of k in t's current chunk (a new one if k does not fit).
func (t *Table) own(k string) string {
	if len(k) > cap(t.chunk)-len(t.chunk) {
		t.chunk = make([]byte, 0, max(keyChunkBytes, len(k)))
	}
	at := len(t.chunk)
	t.chunk = append(t.chunk, k...)
	return codec.Alias(t.chunk[at:])
}

// insertAt stores k, which must be immutable and free to share (own's result,
// another table's key, a substring of a decoded payload), at the free slot
// probe returned for it. A caller's key never gets here, so that it does not
// escape: its bytes may be on the caller's stack (AddBytes).
func (t *Table) insertAt(slot uint32, k string, h uint32, v float64) {
	t.keys = append(t.keys, k)
	t.vals = append(t.vals, v)
	t.hashes = append(t.hashes, h)
	t.slots[slot] = h&^t.mask | uint32(len(t.keys))
	t.encBytes += codec.SizeString(k) + 8
	t.dirtyOwner()
	if t.tok != 0 {
		t.inserted()
	}
	// Grow at 3/4 load so probe chains stay short.
	if 4*len(t.keys) >= 3*len(t.slots) {
		t.grow()
	}
}

// dirtyOwner invalidates the owning State's cached serialized size.
func (t *Table) dirtyOwner() {
	if t.owner != nil {
		t.owner.sizeCache = 0
	}
}

// Len returns the number of cells. Safe on a nil table.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	return len(t.keys)
}

// Get returns the cell's value (0 if absent). Safe on a nil table.
func (t *Table) Get(k string) float64 {
	v, _ := t.Lookup(k)
	return v
}

// Lookup returns the cell's value and whether it exists. Safe on a nil
// table.
func (t *Table) Lookup(k string) (float64, bool) {
	return t.lookup(k, hashKey(k))
}

// lookup is Lookup for a key whose hash the caller already holds (an entry of
// another table).
func (t *Table) lookup(k string, h uint32) (float64, bool) {
	if t == nil || t.slots == nil {
		return 0, false
	}
	if _, ei := t.probe(k, h); ei >= 0 {
		return t.vals[ei], true
	}
	return 0, false
}

// Set stores v under k (a copy of k, if the cell is new).
func (t *Table) Set(k string, v float64) {
	t.ensure()
	h := hashKey(k)
	if slot, ei := t.probe(k, h); ei >= 0 {
		t.vals[ei] = v
		t.wrote(ei)
	} else {
		t.insertAt(slot, t.own(k), h, v)
	}
}

// set is Set on existing slots for a key that is free to share (see insertAt).
func (t *Table) set(k string, v float64) {
	h := hashKey(k)
	if slot, ei := t.probe(k, h); ei >= 0 {
		t.vals[ei] = v
		t.wrote(ei)
	} else {
		t.insertAt(slot, k, h, v)
	}
}

// Add increments the cell by dv (creating it at dv, under a copy of k) and
// returns the new value.
func (t *Table) Add(k string, dv float64) float64 {
	t.ensure()
	h := hashKey(k)
	slot, ei := t.probe(k, h)
	if ei >= 0 {
		t.vals[ei] += dv
		t.wrote(ei)
		return t.vals[ei]
	}
	t.insertAt(slot, t.own(k), h, dv)
	return dv
}

// AddBytes is Add for a key the caller built in a byte buffer, which it may
// reuse as soon as AddBytes returns.
func (t *Table) AddBytes(k []byte, dv float64) float64 {
	return t.Add(codec.Alias(k), dv)
}

// AddTable sums src's cells into t, cell by cell in src's storage order: what
// `for k, v := range src.All() { t.Add(k, v) }` does, without hashing a key
// again (src holds the hashes) or copying one (t shares src's). A nil or empty
// src changes nothing; src == t is allowed and doubles every cell.
func (t *Table) AddTable(src *Table) {
	if src.Len() == 0 {
		return
	}
	if len(t.keys) == 0 {
		t.copyFrom(src) // nothing to probe against
		return
	}
	// Every key of t is already in t, so src == t inserts nothing and the
	// ranged slices stay as they are.
	for i, k := range src.keys {
		h := src.hashes[i]
		if slot, ei := t.probe(k, h); ei >= 0 {
			t.vals[ei] += src.vals[i]
			t.wrote(ei)
		} else {
			t.insertAt(slot, k, h, src.vals[i])
		}
	}
}

// delete removes the cell, reporting whether it existed. The dense entry is
// swap-removed and the probe chain backward-shifted: no tombstones, no
// degradation under churn. A table that tracked a checkpoint tip stops: its
// readers walk it whole until the next mark. Only a delta's application
// removes a single cell: an operator's one removal is State.ClearTable.
func (t *Table) delete(k string) bool {
	if t == nil || t.slots == nil {
		return false
	}
	slot, ei := t.probe(k, hashKey(k))
	if ei < 0 {
		return false
	}
	t.tok = 0
	last := int32(len(t.keys)) - 1
	if ei != last {
		// The last entry takes the place of the removed one: its slot is the
		// one on its probe chain that holds its index.
		lh := t.hashes[last]
		lslot := lh & t.mask
		for t.slots[lslot]&t.mask != uint32(last+1) {
			lslot = (lslot + 1) & t.mask
		}
		t.keys[ei] = t.keys[last]
		t.vals[ei] = t.vals[last]
		t.hashes[ei] = lh
		t.slots[lslot] = lh&^t.mask | uint32(ei+1)
	}
	t.keys[last] = "" // release the string
	t.keys = t.keys[:last]
	t.vals = t.vals[:last]
	t.hashes = t.hashes[:last]
	t.encBytes -= codec.SizeString(k) + 8
	t.dirtyOwner()
	// Backward-shift deletion: walk the probe chain after the emptied slot
	// and pull back any entry whose home position lies at or before it.
	i := slot
	t.slots[i] = 0
	for j := (i + 1) & t.mask; t.slots[j] != 0; j = (j + 1) & t.mask {
		home := t.hashes[t.slots[j]&t.mask-1] & t.mask
		if (j-home)&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			t.slots[j] = 0
			i = j
		}
	}
	return true
}

// clear removes every cell but keeps all backing arrays for reuse. A table
// that tracked a checkpoint tip stops, as after delete.
func (t *Table) clear() {
	if t == nil {
		return
	}
	t.tok = 0
	if len(t.keys) == 0 {
		return
	}
	for i := range t.keys {
		t.keys[i] = ""
	}
	t.keys = t.keys[:0]
	t.vals = t.vals[:0]
	t.hashes = t.hashes[:0]
	clear(t.slots)
	t.encBytes = 0
	t.dirtyOwner()
}

// All returns a range-over-func iterator over the cells (unspecified
// order). Safe on a nil table.
func (t *Table) All() func(yield func(string, float64) bool) {
	return func(yield func(string, float64) bool) {
		if t == nil {
			return
		}
		for i, k := range t.keys {
			if !yield(k, t.vals[i]) {
				return
			}
		}
	}
}

// order returns the entry indexes sorted by key, in o's buffer (valid until o
// sorts again). It only reads t.
func (t *Table) order(o *keyOrder) []int32 { return o.sort(t.keys) }

// encode appends the table as a uvarint count followed by its key/value
// pairs: in sorted key order (the canonical form) when o is given, or else in
// storage order.
func (t *Table) encode(buf []byte, o *keyOrder) []byte {
	buf = codec.AppendUvarint(buf, uint64(len(t.keys)))
	if o == nil {
		for i, k := range t.keys {
			buf = codec.AppendString(buf, k)
			buf = codec.AppendFloat64(buf, t.vals[i])
		}
		return buf
	}
	for _, ei := range t.order(o) {
		buf = codec.AppendString(buf, t.keys[ei])
		buf = codec.AppendFloat64(buf, t.vals[ei])
	}
	return buf
}

// encodedSize is len(encode(nil)) without sorting, building bytes, or even
// walking the cells — encBytes is maintained by every mutation.
func (t *Table) encodedSize() int {
	return codec.SizeUvarint(uint64(len(t.keys))) + t.encBytes
}

// copyFrom makes t a copy of src — the same cells in the same order, sharing
// its keys — reusing t's backing arrays.
func (t *Table) copyFrom(src *Table) {
	t.clear()
	if src == nil || len(src.keys) == 0 {
		return
	}
	t.keys = append(t.keys, src.keys...)
	t.vals = append(t.vals, src.vals...)
	t.hashes = append(t.hashes, src.hashes...)
	if len(t.slots) < len(src.slots) {
		t.slots = make([]uint32, len(src.slots))
		t.mask = src.mask
	}
	if len(t.slots) == len(src.slots) {
		copy(t.slots, src.slots)
	} else {
		t.place() // t keeps its wider slot array
	}
	t.encBytes = src.encBytes
	t.dirtyOwner()
}
