package statestore

import (
	"slices"
	"strings"

	"repro/internal/codec"
)

// Table is one named table of a key group's state: an open-addressed hash
// from cell key to float64, replacing the map[string]float64 of earlier
// versions. The layout is the commTable idiom: entries live densely in
// parallel keys/vals arrays (cheap iteration, cheap clear), and a
// power-of-two slot array maps splitmix-finalized key hashes to entry
// indexes by linear probing. Deletion is tombstone-free — the dense entry is
// swap-removed and the probe chain repaired by backward shifting — so long
// delete-heavy lifetimes never degrade probes. Clear keeps every backing
// array, which is what makes per-period window flushes allocation-free.
//
// Iteration order is unspecified (like a map); canonical serialization sorts.
type Table struct {
	keys  []string
	vals  []float64
	slots []int32 // entry index + 1; 0 = empty
	mask  uint32
	// scratch is the reusable entry-index buffer order hands out (encoding
	// without a per-encode allocation).
	scratch []int32
	// encBytes is the encoded size of the cells (sum of SizeString(key)+8),
	// maintained incrementally so encodedSize is O(1). Cell values are
	// fixed-width floats, so only insertion and removal change it.
	encBytes int
	// owner, when the table belongs to a State, is notified on any
	// size-changing mutation so the State's cached Size() stays honest.
	// Scratch and standalone tables have no owner.
	owner *State
}

// hashKey is codec's FNV-1a passed through a splitmix64 finalizer, so the
// low bits used by the power-of-two mask mix the whole hash.
func hashKey(s string) uint64 {
	h := codec.Hash(s)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

const minTableSlots = 8

// probe returns the slot where k lives or would be inserted, and the entry
// index holding k (-1 if absent). Must not be called with nil slots.
func (t *Table) probe(k string) (uint32, int32) {
	i := uint32(hashKey(k)) & t.mask
	for {
		e := t.slots[i]
		if e == 0 {
			return i, -1
		}
		if t.keys[e-1] == k {
			return i, e - 1
		}
		i = (i + 1) & t.mask
	}
}

func (t *Table) ensure() {
	if t.slots == nil {
		t.slots = make([]int32, minTableSlots)
		t.mask = minTableSlots - 1
	}
}

// grow doubles the slot array and rehashes every dense entry.
func (t *Table) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	t.mask = uint32(len(t.slots) - 1)
	for ei, k := range t.keys {
		i := uint32(hashKey(k)) & t.mask
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = int32(ei + 1)
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
		t.slots = make([]int32, need)
		t.mask = uint32(need - 1)
	}
	t.keys = slices.Grow(t.keys, n)
	t.vals = slices.Grow(t.vals, n)
}

func (t *Table) insertAt(slot uint32, k string, v float64) {
	t.keys = append(t.keys, k)
	t.vals = append(t.vals, v)
	t.slots[slot] = int32(len(t.keys))
	t.encBytes += codec.SizeString(k) + 8
	t.dirtyOwner()
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
	if t == nil || t.slots == nil {
		return 0, false
	}
	if _, ei := t.probe(k); ei >= 0 {
		return t.vals[ei], true
	}
	return 0, false
}

// Has reports whether the cell exists. Safe on a nil table.
func (t *Table) Has(k string) bool {
	_, ok := t.Lookup(k)
	return ok
}

// Set stores v under k.
func (t *Table) Set(k string, v float64) {
	t.ensure()
	slot, ei := t.probe(k)
	if ei >= 0 {
		t.vals[ei] = v
		return
	}
	t.insertAt(slot, k, v)
}

// Add increments the cell by dv (creating it at dv) and returns the new
// value.
func (t *Table) Add(k string, dv float64) float64 {
	t.ensure()
	slot, ei := t.probe(k)
	if ei >= 0 {
		t.vals[ei] += dv
		return t.vals[ei]
	}
	t.insertAt(slot, k, dv)
	return dv
}

// Delete removes the cell, reporting whether it existed. The dense entry is
// swap-removed and the probe chain backward-shifted: no tombstones, no
// degradation under churn.
func (t *Table) Delete(k string) bool {
	if t == nil || t.slots == nil {
		return false
	}
	slot, ei := t.probe(k)
	if ei < 0 {
		return false
	}
	last := int32(len(t.keys)) - 1
	if ei != last {
		lslot, _ := t.probe(t.keys[last])
		t.keys[ei] = t.keys[last]
		t.vals[ei] = t.vals[last]
		t.slots[lslot] = ei + 1
	}
	t.keys[last] = "" // release the string
	t.keys = t.keys[:last]
	t.vals = t.vals[:last]
	t.encBytes -= codec.SizeString(k) + 8
	t.dirtyOwner()
	// Backward-shift deletion: walk the probe chain after the emptied slot
	// and pull back any entry whose home position lies at or before it.
	i := slot
	t.slots[i] = 0
	for j := (i + 1) & t.mask; t.slots[j] != 0; j = (j + 1) & t.mask {
		home := uint32(hashKey(t.keys[t.slots[j]-1])) & t.mask
		if (j-home)&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			t.slots[j] = 0
			i = j
		}
	}
	return true
}

// Clear removes every cell but keeps all backing arrays for reuse.
func (t *Table) Clear() {
	if t == nil || len(t.keys) == 0 {
		return
	}
	for i := range t.keys {
		t.keys[i] = ""
	}
	t.keys = t.keys[:0]
	t.vals = t.vals[:0]
	clear(t.slots)
	t.encBytes = 0
	t.dirtyOwner()
}

// Range calls fn for every cell until fn returns false. Iteration order is
// unspecified. fn must not mutate the table. Safe on a nil table.
func (t *Table) Range(fn func(k string, v float64) bool) {
	if t == nil {
		return
	}
	for i, k := range t.keys {
		if !fn(k, t.vals[i]) {
			return
		}
	}
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

// order returns the entry indexes sorted by key, or else in storage order, in
// a buffer reused across calls (invalidated by any mutation or the next call).
func (t *Table) order(sorted bool) []int32 {
	t.scratch = t.scratch[:0]
	for i := range t.keys {
		t.scratch = append(t.scratch, int32(i))
	}
	if sorted {
		slices.SortFunc(t.scratch, func(a, b int32) int {
			return strings.Compare(t.keys[a], t.keys[b])
		})
	}
	return t.scratch
}

// encode appends the table as a uvarint count followed by its key/value
// pairs: in sorted key order (the canonical form), or else in storage order.
func (t *Table) encode(buf []byte, sorted bool) []byte {
	buf = codec.AppendUvarint(buf, uint64(len(t.keys)))
	for _, ei := range t.order(sorted) {
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

// sortSymsByName sorts a symbol slice by the names it indexes.
func sortSymsByName(syms []int32, names []string) {
	slices.SortFunc(syms, func(a, b int32) int {
		return strings.Compare(names[a], names[b])
	})
}

// copyFrom makes t an exact copy of src, reusing t's backing arrays.
func (t *Table) copyFrom(src *Table) {
	t.Clear()
	if src == nil || len(src.keys) == 0 {
		return
	}
	t.keys = append(t.keys, src.keys...)
	t.vals = append(t.vals, src.vals...)
	if len(t.slots) != len(src.slots) {
		t.slots = make([]int32, len(src.slots))
		t.mask = src.mask
	}
	copy(t.slots, src.slots)
	t.encBytes = src.encBytes
	t.dirtyOwner()
}
