package statestore

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// defaultMaxChain is the most deltas a chain holds (Chain.takes).
const defaultMaxChain = 8

// Chain is the shape of a key group's chain in the store: its base's length
// and the count and total length of the deltas on it. A tip carries it.
type Chain struct{ Base, Deltas, DeltaBytes int }

// takes reports whether c takes one more delta of n bytes — the chain bound,
// stated here alone: fewer than defaultMaxChain deltas, together at most half
// the base. Tip.Cut writes the tip whole instead of a delta it refuses, and
// Record refuses such a delta.
func (c Chain) takes(n int) bool { return c.Deltas < defaultMaxChain && 2*(c.DeltaBytes+n) <= c.Base }

// entry is one key group's incremental chain: a full encoded snapshot plus
// encoded deltas leading to version. tip is set only while the
// store itself holds the group's tip (Checkpoint); written through Record, a
// store is a log and keeps no decoded state.
type entry struct {
	version    int
	base       []byte
	deltas     [][]byte
	deltaBytes int
	tip        *Tip
}

// chain returns e's shape.
func (e *entry) chain() Chain { return Chain{len(e.base), len(e.deltas), e.deltaBytes} }

// Store is a versioned, per-group, in-memory log of incremental checkpoints:
// the base a migration ships and the state recovery restores. The decoded
// state at a group's last checkpoint — its Tip, which the next delta is cut
// against, and which knows its chain's shape — lives with whoever holds the
// group's live state: that party cuts and writes it (Tip.Cut, Tip.Write) and
// hands what it wrote to Record. Recovery reads states back by replaying base
// and deltas (Materialize, EncodedState); Checkpoint is cut, write and Record
// in one call, the store holding the tips itself. Not goroutine-safe: the
// engine uses it only between periods.
type Store struct {
	groups map[int]*entry
	gids   []int // the keys of groups, ascending
	bytes  int

	// scratch is the delta Checkpoint diffs into and replay decodes into, so
	// the steady-state checkpoint path allocates only the appended chain bytes.
	scratch Delta
}

// New returns an empty store.
func New() *Store { return &Store{groups: map[int]*entry{}} }

// Len returns the number of key groups with a checkpointed state.
func (s *Store) Len() int { return len(s.groups) }

// Bytes returns the total stored volume (bases plus delta chains) — the
// footprint the incremental design keeps close to one full snapshot.
func (s *Store) Bytes() int { return s.bytes }

// Version returns the version of gid's latest checkpoint (-1 if none).
func (s *Store) Version(gid int) int {
	if e := s.groups[gid]; e != nil {
		return e.version
	}
	return -1
}

// Groups returns the checkpointed gids in ascending order. The slice is the
// store's own: read it, and do not hold it across a Checkpoint or Record.
func (s *Store) Groups() []int { return s.gids }

// Step says how Tip.Cut brought a checkpoint tip up to date.
type Step uint8

const (
	// StepNone: the state equals the tip; nothing was written.
	StepNone Step = iota
	// StepDelta: the bytes are the encoded delta cur − tip, applied to the tip.
	StepDelta
	// StepBase: the bytes are cur encoded whole, which the tip now equals:
	// a first checkpoint, a state whose delta is no smaller than itself, or a
	// delta its chain does not take. The chain restarts from them.
	StepBase
)

// Tip is one key group's decoded state at its last checkpoint. It lives beside
// the group's live state (an engine shard, or a Store used through
// Checkpoint), and it knows the shape of the chain its checkpoints built in
// the store (Chain), which it hands on with itself. The zero Tip is a group
// that has not been checkpointed yet. A state its methods read must hold every
// counter the tip holds, as a delta's new state does (diffInto): the live
// state the tip was cut from always does.
type Tip struct {
	ver   int
	st    *State
	chain Chain
	// enc is st's canonical encoding once someone produced it (Write of a
	// base, Encoding, or the bytes st was decoded from), nil until then; a
	// Cut that changes st drops it. Atomic because Encoding may run beside
	// the Write that caches it.
	enc atomic.Pointer[[]byte]
	// measuredAt is 1 + the version whose Cut may take measured as
	// the size of cur − st (0: none); see Measure.
	measuredAt, measured int
	// tok is the mark of the live state the tip was last found equal to (0:
	// none): the tables of that state that carry it record what changes in
	// them, and the tip's readers of that state read only that (track.go).
	tok uint64
}

// NewTip adopts st, whose chain in the store has shape chain, as the tip at
// version: a state that arrived whole (a moved tip; a recovered state, whose
// chain is one base). enc, when not nil, is the canonical encoding st was
// decoded from; the tip keeps it as its Encoding.
func NewTip(version int, st *State, enc []byte, chain Chain) *Tip {
	t := &Tip{ver: version, st: st, chain: chain}
	if enc != nil {
		t.enc.Store(&enc)
	}
	return t
}

// Version returns the version of the checkpoint the tip holds.
func (t *Tip) Version() int { return t.ver }

// State returns the tip's state (nil for the zero Tip), read-only.
func (t *Tip) State() *State { return t.st }

// Chain returns the shape of the tip's chain once what its last Cut decided is
// recorded.
func (t *Tip) Chain() Chain { return t.chain }

// Encoding returns the tip's state canonically encoded — the bytes a Write of
// a base returns — encoding it only if no one has yet since the tip last
// changed: after a base checkpoint, or for a tip adopted from its bytes, it
// costs nothing. The bytes are the tip's; do not write to them. It reads only
// the tip, so it may run beside a Write.
func (t *Tip) Encoding() []byte {
	if p := t.enc.Load(); p != nil {
		return *p
	}
	enc := t.st.Encode(make([]byte, 0, t.st.Size()))
	if !t.enc.CompareAndSwap(nil, &enc) {
		return *t.enc.Load()
	}
	return enc
}

// Measure returns the encoded size of the delta cur − t.State(), without
// building it, and keeps it for a Cut at version, which then takes it instead
// of sizing the delta again: the caller vouches that cur does not change in
// between. Any change of the tip (a Cut, a new Tip) forgets the reading. Of a
// state the tip tracks, it reads only the cells written since the last
// reading; of any other, every cell.
func (t *Tip) Measure(version int, cur *State) int {
	t.measured, t.measuredAt = diffSize(t.st, cur, t.tok), version+1
	return t.measured
}

// DiffInto computes cur − t.State() into d (d is Reset first), reading of a
// state the tip tracks only the cells written since the mark and of any other
// every cell. It reads the tip and cur and changes neither.
func (t *Tip) DiffInto(d *Delta, cur *State) { diffInto(d, t.st, cur, t.tok, false) }

// Pending returns the delta size the last Measure took, or an empty delta's
// when the tip was cut or adopted since: it then is the state it came from.
func (t *Tip) Pending() int {
	if t.measuredAt == 0 {
		return emptyDeltaSize
	}
	return t.measured
}

// advance is Cut followed by Write, which the engine runs apart: it returns
// the step, the cut and what to Record. d is scratch.
func (t *Tip) advance(d *Delta, version int, cur *State) (Step, int, []byte) {
	step, cut, n := t.Cut(d, version, cur)
	var buf []byte
	if step != StepNone {
		buf = make([]byte, 0, n)
	}
	return step, cut, t.Write(step, d, buf)
}

// Cut is the checkpoint write rule, the only one, and the half of a
// checkpoint that reads cur: it takes the step and brings the tip up to cur at
// version, a copy of cur or the delta (into d) applied. A state that equals
// the tip writes nothing; one that changed little writes the delta, if the
// tip's chain takes it (Chain.takes), else the tip whole; a group's first
// checkpoint and a state whose delta would be at least as large as itself
// (windowed state churns fully between cadences) write cur whole. So a
// checkpoint never writes more than |σ|, and the choice depends only on the
// tip and cur, never on where the tip lives.
//
// Cut returns the step, the cut — the delta's size, also where the chain did
// not take it, else the base's — and n, the exact length of what Write will
// encode; the tip's chain is the store's once that is recorded. It sizes the
// delta unless Measure did at version. cur equals the tip afterwards, and the
// tip tracks it (Track).
func (t *Tip) Cut(d *Delta, version int, cur *State) (step Step, cut, n int) {
	measured := t.measuredAt != 0 && t.measuredAt == version+1
	t.ver, t.measuredAt = version, 0
	size := cur.Size() // a zero tip writes a base
	if t.st == nil {
		t.st = NewState()
	} else {
		if size = t.measured; !measured {
			size = diffSize(t.st, cur, t.tok)
		}
		if size == emptyDeltaSize {
			t.Track(cur)
			return StepNone, 0, 0
		}
	}
	t.enc.Store(nil)
	whole := size >= cur.Size()
	if whole {
		size = cur.Size()
		t.st.CopyFrom(cur)
	} else {
		// The cells of tracked tables go into the tip as they are found.
		diffInto(d, t.st, cur, t.tok, true)
		d.apply(t.st, true)
	}
	t.Track(cur)
	if !whole && t.chain.takes(size) {
		t.chain.Deltas++
		t.chain.DeltaBytes += size
		return StepDelta, size, size
	}
	t.chain = Chain{Base: t.st.Size()}
	return StepBase, size, t.chain.Base
}

// Write is the other half: it appends to buf what Cut decided — nothing for
// StepNone, the tip encoded for StepBase (its canonical bytes are cur's), d
// for StepDelta. It reads the tip and reorders d, and never looks at cur, so it
// may run while cur changes; nothing but Encoding may use the tip or d
// meanwhile. Write(StepBase) of any tip is the base its chain amounts to, and
// the tip keeps the bytes it appended as its Encoding: do not write to them.
func (t *Tip) Write(step Step, d *Delta, buf []byte) []byte {
	switch step {
	case StepBase:
		out := t.st.Encode(buf)
		enc := out[len(buf):len(out):len(out)]
		t.enc.Store(&enc)
		return out
	case StepDelta:
		return d.Encode(buf)
	}
	return buf
}

// Record appends what gid's tip-holder wrote at version: nothing (the version
// alone advances), a delta on the chain, or a fresh base that replaces it —
// unless Check refuses it. It is the only thing that changes a chain. The
// store keeps payload and does not look inside: the caller vouches that it is
// what Tip.Write encoded, or that it decodes.
func (s *Store) Record(gid, version int, step Step, payload []byte) error {
	if err := s.Check(gid, step, len(payload)); err != nil {
		return err
	}
	e := s.groups[gid]
	if e == nil {
		e = &entry{}
		s.groups[gid] = e
		i, _ := slices.BinarySearch(s.gids, gid)
		s.gids = slices.Insert(s.gids, i, gid)
	}
	e.version, e.tip = version, nil
	switch step {
	case StepBase:
		s.setBase(e, payload)
	case StepDelta:
		e.deltas = append(e.deltas, payload)
		e.deltaBytes += len(payload)
		s.bytes += len(payload)
	}
	return nil
}

// Check returns the error Record returns for gid's step of n bytes: none for
// a base; for anything else from a group without a chain, and for a delta its
// chain does not take (Chain.takes).
func (s *Store) Check(gid int, step Step, n int) error {
	e := s.groups[gid]
	switch {
	case step == StepBase:
		return nil
	case e == nil:
		return fmt.Errorf("statestore: step %d for untracked group %d", step, gid)
	case step == StepDelta && !e.chain().takes(n):
		return fmt.Errorf("statestore: a %d-byte delta is past group %d's chain bound (%+v)", n, gid, e.chain())
	}
	return nil
}

// Footprint returns the bytes gid's chain holds (0 for an untracked group).
func (s *Store) Footprint(gid int) int {
	if e := s.groups[gid]; e != nil {
		return len(e.base) + e.deltaBytes
	}
	return 0
}

// setBase makes base, a state encoded at e.version, the whole of e's chain.
func (s *Store) setBase(e *entry, base []byte) {
	s.bytes += len(base) - len(e.base) - e.deltaBytes
	e.base = base
	e.deltas, e.deltaBytes = nil, 0
}

// Checkpoint records st as gid's state at version with the store holding the
// group's tip itself: Tip.Cut decides what to write and Record records it. It
// returns the cut (never more than the state's size). A group last written
// through Record has its tip replayed first. A nil st is the empty state.
func (s *Store) Checkpoint(gid, version int, st *State) int {
	if st == nil {
		st = &emptyState
	}
	tip := &Tip{}
	if e := s.groups[gid]; e != nil {
		tip = e.replay(&s.scratch)
	}
	step, cut, enc := tip.advance(&s.scratch, version, st)
	s.Record(gid, version, step, enc) //nolint:errcheck // the tip's chain is the store's
	s.groups[gid].tip = tip
	return cut
}

// replay returns the tip of e's chain: the one the store holds, or else the
// base decoded and the deltas applied, with e's shape — the zero Tip when a
// recorded payload does not decode (the engine checks before it records).
func (e *entry) replay(d *Delta) *Tip {
	if e.tip != nil {
		return e.tip
	}
	st, err := DecodeState(e.base)
	for i := 0; err == nil && i < len(e.deltas); i++ {
		if _, err = DecodeDeltaInto(e.deltas[i], d); err == nil {
			d.Apply(st)
		}
	}
	if err != nil {
		return &Tip{}
	}
	return &Tip{ver: e.version, st: st, chain: e.chain()}
}

// Materialize returns a copy of gid's checkpointed state and its version,
// replaying the chain unless the store holds the group's tip.
func (s *Store) Materialize(gid int) (*State, int, bool) {
	e := s.groups[gid]
	if e == nil {
		return nil, -1, false
	}
	st := e.replay(&s.scratch).st
	if e.tip != nil {
		st = st.Clone()
	}
	return st, e.version, st != nil
}

// EncodedState returns gid's checkpointed state fully encoded (the bytes a
// recovery ships) plus its version; the slice is immutable. It changes no
// chain: one with deltas is replayed, unless the store holds its tip.
func (s *Store) EncodedState(gid int) ([]byte, int, bool) {
	e := s.groups[gid]
	if e == nil {
		return nil, -1, false
	}
	if len(e.deltas) == 0 {
		return e.base, e.version, true
	}
	if tip := e.replay(&s.scratch); tip.st != nil {
		return tip.Encoding(), e.version, true
	}
	return nil, -1, false
}
