// Package statestore is the single home of key-group state: the State type
// operators mutate, the semantic Delta between two states, and the
// versioned, per-group incremental Store that checkpointing and migration
// share. The store keeps, per key group, one full encoded snapshot (the
// base) plus a chain of encoded deltas — an incremental checkpoint costs
// only the delta since the previous one, and a planned migration of a
// checkpointed group can ship the (large) checkpoint its source already holds
// and synchronously transfer only the delta accumulated since. The store lives
// in the controller's memory; it has no serialized form of its own. All
// encoding goes through internal/codec and every decode path is hardened
// against malformed input (truncated payloads, lying lengths, retired
// sections).
//
// Since the allocation endgame, nothing here is backed by Go maps. Field
// names (counter and table names) are interned into a per-State symbol table
// — an append-only name arena plus an open-addressed index — and each kind
// stores its values in dense per-symbol arrays gated by presence bits. Cells
// live in open-addressed Tables (see table.go). Every structure clears by
// truncation and keeps its backing arrays, so a State recycled across periods
// or migrations (Reset) reaches a steady state where operator mutation, a
// diff, Apply, and Encode allocate nothing.
package statestore

import (
	"fmt"
	"strings"

	"repro/internal/codec"
)

// Presence bits in State.kind, one per interned symbol.
const (
	kNum uint8 = 1 << iota
	kTab
)

const (
	minSymSlots = 16
	symHints    = 16
)

// State is the computation state σ_k of one key group: scalar counters and
// named tables (e.g. per-key aggregates or window contents). It is what
// checkpointing and state migration serialize. Counters are never deleted:
// only Reset (and the decoders, which reset first) drops one, and ClearTable
// is the only removal an operator has.
type State struct {
	// The symbol table: names is the append-only arena (symbol = index),
	// symSlots the open-addressed name → symbol+1 index.
	names    []string
	symSlots []int32
	symMask  uint32
	hint     [symHints]uint8 // symbol + 1 last resolved per (length + last byte), see sym

	// Per-symbol storage, all kept len(names) long. kind gates presence —
	// dropping a table clears its bit and leaves the slot for reuse.
	kind   []uint8
	numVal []float64
	tabs   []*Table // lazily created, retained across ClearTable/Reset

	numN, tabN int

	// scratchTab backs Scratch(): transient per-flush workspace, never
	// serialized, diffed or cloned.
	scratchTab *Table

	// sizeCache memoizes Size(). 0 means dirty — an empty state encodes to
	// three count bytes, so no valid size is ever 0. Every size-changing
	// mutation (field create, table drop, table cell churn via the
	// Table owner hook) resets it; value-only numeric updates don't, since
	// floats are fixed-width on the wire.
	sizeCache int
}

// NewState returns an empty state.
func NewState() *State {
	return &State{}
}

// intern returns name's symbol, creating it if new: from a copy of name if own
// is set (a State owns its field names, the caller's may alias a frame), else
// from name itself, which must then be immutable (another State's, a decoded
// payload's). Symbols are never removed: the field names an operator touches
// are few and fixed, and keeping them makes a recycled State allocation-free.
func (s *State) intern(name string, own bool) int32 {
	if sym := s.sym(name); sym >= 0 {
		return sym
	}
	if own {
		name = strings.Clone(name)
	}
	if s.symSlots == nil {
		s.symSlots = make([]int32, minSymSlots)
		s.symMask = minSymSlots - 1
	}
	sym := int32(len(s.names))
	s.names = append(s.names, name)
	s.kind = append(s.kind, 0)
	s.numVal = append(s.numVal, 0)
	s.tabs = append(s.tabs, nil)
	if 4*len(s.names) >= 3*len(s.symSlots) {
		s.symSlots = make([]int32, 2*len(s.symSlots))
		s.symMask = uint32(len(s.symSlots) - 1)
		for old := range s.names[:sym] {
			s.placeSym(int32(old))
		}
	}
	s.placeSym(sym)
	return sym
}

// placeSym enters a symbol that is not in the index into it.
func (s *State) placeSym(sym int32) {
	i := hashKey(s.names[sym]) & s.symMask
	for s.symSlots[i] != 0 {
		i = (i + 1) & s.symMask
	}
	s.symSlots[i] = sym + 1
}

// sym returns name's symbol without interning (-1 if never seen). A name that
// was resolved before is found without hashing it, through hint: operators ask
// for the same few names for every tuple, and length plus last byte tell those
// apart ("period", "w0" … "w5"). Names that collide there evict each other and
// cost what every name did before, a hash and a probe.
func (s *State) sym(name string) int32 {
	hi := uint32(0)
	if len(name) > 0 {
		hi = (uint32(len(name)) + uint32(name[len(name)-1])) % symHints
	}
	if e := int32(s.hint[hi]); e != 0 && s.names[e-1] == name {
		return e - 1
	}
	if s.symSlots == nil {
		return -1
	}
	i := hashKey(name) & s.symMask
	for {
		e := s.symSlots[i]
		if e == 0 {
			return -1
		}
		if s.names[e-1] == name {
			if e <= 255 {
				s.hint[hi] = uint8(e)
			}
			return e - 1
		}
		i = (i + 1) & s.symMask
	}
}

// Add increments counter name by v and returns the new value.
func (s *State) Add(name string, v float64) float64 {
	sym := s.intern(name, true)
	if s.kind[sym]&kNum == 0 {
		s.setNum(sym, v)
	} else {
		s.numVal[sym] += v
	}
	return s.numVal[sym]
}

func (s *State) setNum(sym int32, v float64) {
	if s.kind[sym]&kNum == 0 {
		s.kind[sym] |= kNum
		s.numN++
		s.sizeCache = 0
	}
	s.numVal[sym] = v
}

// Num returns counter name (0 if absent).
func (s *State) Num(name string) float64 {
	if sym := s.sym(name); sym >= 0 && s.kind[sym]&kNum != 0 {
		return s.numVal[sym]
	}
	return 0
}

// LookupNum returns counter name and whether it exists.
func (s *State) LookupNum(name string) (float64, bool) {
	if sym := s.sym(name); sym >= 0 && s.kind[sym]&kNum != 0 {
		return s.numVal[sym], true
	}
	return 0, false
}

// Table returns the named table, creating it (empty) if needed. A created
// table is part of the state even while empty — it serializes as a name
// with zero cells — until ClearTable drops it.
func (s *State) Table(name string) *Table { return s.table(s.intern(name, true)) }

func (s *State) table(sym int32) *Table {
	if s.kind[sym]&kTab == 0 {
		s.kind[sym] |= kTab
		s.tabN++
		if s.tabs[sym] == nil {
			s.tabs[sym] = &Table{owner: s}
		}
		s.sizeCache = 0
	}
	return s.tabs[sym]
}

// LookupTable returns the named table or nil, without creating it.
func (s *State) LookupTable(name string) *Table {
	if sym := s.sym(name); sym >= 0 && s.kind[sym]&kTab != 0 {
		return s.tabs[sym]
	}
	return nil
}

// ClearTable drops the named table (window flush). The table's backing
// arrays are kept for reuse by a later Table call of the same name.
func (s *State) ClearTable(name string) {
	if sym := s.sym(name); sym >= 0 && s.kind[sym]&kTab != 0 {
		s.kind[sym] &^= kTab
		s.tabs[sym].clear()
		s.tabN--
		s.sizeCache = 0
	}
}

// Scratch returns an empty per-State scratch table for transient
// computation (e.g. folding window buckets before emitting). The same table
// is reused — and cleared — by every call, and it is never serialized,
// diffed or cloned with the state.
func (s *State) Scratch() *Table {
	if s.scratchTab == nil {
		s.scratchTab = &Table{}
	}
	s.scratchTab.clear()
	return s.scratchTab
}

// Reset clears the state for reuse: every field is dropped but the symbol
// table, per-symbol arrays, and table backing storage are all kept.
func (s *State) Reset() {
	for sym := range s.kind {
		if s.kind[sym]&kTab != 0 {
			s.tabs[sym].clear()
		}
		s.kind[sym] = 0
		s.numVal[sym] = 0
	}
	s.numN, s.tabN = 0, 0
	s.sizeCache = 0
	if s.scratchTab != nil {
		s.scratchTab.clear()
	}
}

// CopyFrom makes s an exact copy of src, reusing s's storage.
func (s *State) CopyFrom(src *State) {
	s.Reset()
	for sym, k := range src.kind {
		if k == 0 {
			continue
		}
		to := s.intern(src.names[sym], false)
		if k&kNum != 0 {
			s.setNum(to, src.numVal[sym])
		}
		if k&kTab != 0 {
			s.table(to).copyFrom(src.tabs[sym])
		}
	}
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := NewState()
	c.CopyFrom(s)
	return c
}

// liveSyms returns the live symbols of the given kind in o's symbol buffer
// (valid until the next call): sorted by name, or else in storage order.
func (s *State) liveSyms(bit uint8, sorted bool, o *keyOrder) []int32 {
	syms := o.syms[:0]
	for sym, k := range s.kind {
		if k&bit != 0 {
			syms = append(syms, int32(sym))
		}
	}
	o.syms = syms
	if sorted {
		sortByKey(o, syms, func(sym int32) string { return s.names[sym] })
	}
	return syms
}

// Encode serializes the state (appended to buf) in its canonical form, keys
// sorted per section: a float map of counters, the count of a retired section
// (string registers: always 0, it keeps its byte), a nested float map of
// tables. Equal states have equal canonical bytes, so this is the form of
// everything that is stored or compared (the checkpoint log).
func (s *State) Encode(buf []byte) []byte { return s.encode(buf, true) }

// EncodeTransfer serializes the state in storage order: the same format and
// length as Encode without the sorts, for bytes that are decoded once and
// dropped (a state travelling shard to shard). DecodeStateInto reads both.
func (s *State) EncodeTransfer(buf []byte) []byte { return s.encode(buf, false) }

// encode only reads s, so a state nobody writes may be encoded beside its
// readers: the buffers it lists and sorts in are a keyOrder's.
func (s *State) encode(buf []byte, sorted bool) []byte {
	o := keyOrders.Get().(*keyOrder)
	defer keyOrders.Put(o)
	var cells *keyOrder // a table's cells in key order, or else in storage order
	if sorted {
		cells = o
	}
	buf = codec.AppendUvarint(buf, uint64(s.numN))
	for _, sym := range s.liveSyms(kNum, sorted, o) {
		buf = codec.AppendString(buf, s.names[sym])
		buf = codec.AppendFloat64(buf, s.numVal[sym])
	}
	buf = codec.AppendUvarint(buf, 0) // retired: string registers
	buf = codec.AppendUvarint(buf, uint64(s.tabN))
	for _, sym := range s.liveSyms(kTab, sorted, o) {
		buf = codec.AppendString(buf, s.names[sym])
		buf = s.tabs[sym].encode(buf, cells)
	}
	return buf
}

// Size returns |σ|: the serialized size in bytes. It is computed
// arithmetically (no encode, no sort) — encoded length is independent of
// key order, so Size() == len(Encode(nil)) always. The result is cached and
// invalidated on size-changing mutations, so the per-period StateBytes
// barrier scan costs O(1) per untouched group instead of O(fields).
func (s *State) Size() int {
	if s.sizeCache != 0 {
		return s.sizeCache
	}
	n := codec.SizeUvarint(uint64(s.numN)) +
		codec.SizeUvarint(0) + // retired: string registers
		codec.SizeUvarint(uint64(s.tabN))
	for sym, k := range s.kind {
		if k&kNum != 0 {
			n += codec.SizeString(s.names[sym]) + 8
		}
		if k&kTab != 0 {
			n += codec.SizeString(s.names[sym]) + s.tabs[sym].encodedSize()
		}
	}
	s.sizeCache = n
	return n
}

// DecodeState reads a state written by Encode.
func DecodeState(b []byte) (*State, error) {
	s := NewState()
	if err := DecodeStateInto(b, s); err != nil {
		return nil, err
	}
	return s, nil
}

// readRetired reads the count of a retired section — string registers in a
// state; counter deletions and string registers set and deleted in a delta —
// which no encoder writes other than 0: the count keeps its byte, and anything
// else is malformed.
func readRetired(b []byte, section string) ([]byte, error) {
	n, b, err := codec.ReadUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("statestore: decode %s: %w", section, err)
	}
	if n != 0 {
		return nil, fmt.Errorf("statestore: %s claims %d entries in a retired section", section, n)
	}
	return b, nil
}

// cutString reads a length-prefixed string from b as a substring of str, a
// copy of the payload that b is the tail of, instead of allocating it; with
// str empty it only skips the string.
func cutString(b []byte, str string) (string, []byte, error) {
	n, b, err := codec.ReadUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(b)) < n {
		return "", nil, fmt.Errorf("statestore: short string (%d of %d bytes)", len(b), n)
	}
	if str == "" {
		return "", b[n:], nil
	}
	off := len(str) - len(b)
	return str[off : off+int(n)], b[n:], nil
}

// DecodeStateInto decodes into an existing state (Reset first), reusing its
// storage — the zero-churn path for validation scratch and recycled migration
// targets. It reads either order: the format does not depend on it. Cell keys
// are substrings of one copy of the table section (they keep it alive while
// any of them is in the state), and each table is sized from its cell count
// before its first cell, so no insert grows or rehashes it.
func DecodeStateInto(b []byte, s *State) error { return decodeState(b, s) }

// CheckState reports what DecodeStateInto would make of b without building
// anything: an error exactly where it fails. It is how a payload that only
// has to be known to decode is checked — several times faster than decoding
// it.
func CheckState(b []byte) error { return decodeState(b, nil) }

// decodeState is DecodeStateInto, and with a nil s CheckState: the same reads
// and bounds, nothing kept.
func decodeState(b []byte, s *State) error {
	readName := codec.ReadString
	if s == nil {
		readName = func(b []byte) (string, []byte, error) { return cutString(b, "") }
	} else {
		s.Reset()
	}
	n, b, err := codec.ReadUvarint(b)
	if err != nil {
		return fmt.Errorf("statestore: decode state nums: %w", err)
	}
	if n > uint64(len(b)) {
		return fmt.Errorf("statestore: state claims %d counters in %d bytes", n, len(b))
	}
	for i := uint64(0); i < n; i++ {
		var k string
		var v float64
		if k, b, err = readName(b); err != nil {
			return fmt.Errorf("statestore: decode state nums: %w", err)
		}
		if v, b, err = codec.ReadFloat64(b); err != nil {
			return fmt.Errorf("statestore: decode state nums: %w", err)
		}
		if s != nil {
			s.setNum(s.intern(k, false), v)
		}
	}
	if b, err = readRetired(b, "state registers"); err != nil {
		return err
	}
	if n, b, err = codec.ReadUvarint(b); err != nil {
		return fmt.Errorf("statestore: decode state tables: %w", err)
	}
	if n > uint64(len(b)) {
		return fmt.Errorf("statestore: state claims %d tables in %d bytes", n, len(b))
	}
	var cells string // "" when checking: cutString then skips the keys
	if s != nil {
		cells = string(b)
	}
	for i := uint64(0); i < n; i++ {
		var name string
		// Field names are copied one by one: a State never forgets a symbol, and
		// one cut from cells would hold the whole copy for as long.
		if name, b, err = readName(b); err != nil {
			return fmt.Errorf("statestore: decode state tables: %w", err)
		}
		var t *Table
		if s != nil {
			t = s.table(s.intern(name, false))
			// A duplicate table name replaces the earlier one, matching the
			// map-decode semantics of previous versions.
			t.clear()
		}
		var count uint64
		if count, b, err = codec.ReadUvarint(b); err != nil {
			return fmt.Errorf("statestore: decode state table %q: %w", name, err)
		}
		// A cell is at least a length byte and a float.
		if count > uint64(len(b))/9 {
			return fmt.Errorf("statestore: table %q claims %d cells in %d bytes", name, count, len(b))
		}
		if t != nil {
			t.reserve(int(count))
		}
		for j := uint64(0); j < count; j++ {
			var k string
			var v float64
			if k, b, err = cutString(b, cells); err != nil {
				return fmt.Errorf("statestore: decode state table %q: %w", name, err)
			}
			if v, b, err = codec.ReadFloat64(b); err != nil {
				return fmt.Errorf("statestore: decode state table %q: %w", name, err)
			}
			if t != nil {
				t.set(k, v)
			}
		}
	}
	return nil
}
