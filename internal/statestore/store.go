package statestore

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Compaction bounds: Record folds a chain into a fresh base once it grows past
// defaultMaxChain links or defaultCompactFactor times the base size.
const (
	defaultMaxChain      = 8
	defaultCompactFactor = 0.5
)

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

// Store is a versioned, per-group, in-memory log of incremental checkpoints:
// the base a migration ships and the state recovery restores. The decoded
// state at a group's last checkpoint — its Tip, which the next delta is cut
// against — lives with whoever holds the group's live state: that party calls
// Tip.Advance (or its halves, Cut and Write) and hands what it wrote to
// Record; a holder that writes a base where Record would fold (FoldBound)
// spares the store a replay. Recovery reads states back by replaying base and
// deltas (Materialize, EncodedState), and so does a fold Record makes without
// a tip; Checkpoint is both halves in one call, the store holding the tips
// itself. Not goroutine-safe: the engine uses it only between periods.
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

// Has reports whether gid has a checkpointed state.
func (s *Store) Has(gid int) bool { return s.groups[gid] != nil }

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

// Step says how Tip.Advance brought a checkpoint tip up to date.
type Step uint8

const (
	// StepNone: the state equals the tip; nothing was written.
	StepNone Step = iota
	// StepDelta: the bytes are the encoded Diff(tip, cur), applied to the tip.
	StepDelta
	// StepBase: the bytes are cur encoded whole, copied into the tip.
	StepBase
)

// Tip is one key group's decoded state at its last checkpoint. It lives beside
// the group's live state (an engine shard, or a Store used through
// Checkpoint). The zero Tip is a group that has not been checkpointed yet. A
// state its methods read must hold every counter the tip holds, as Diff's new
// does: the live state the tip was cut from always does.
type Tip struct {
	ver int
	st  *State
	// enc is st's canonical encoding once someone produced it (Write of a
	// base, Encoding, or the bytes st was decoded from), nil until then; a
	// Cut that changes st drops it. Atomic because Encoding may run beside
	// the Write that caches it.
	enc atomic.Pointer[[]byte]
	// measuredAt is 1 + the version whose Cut may take measured as
	// DiffSize(st, cur) (0: none); see Measure.
	measuredAt, measured int
	// tok is the mark of the live state the tip was last found equal to (0:
	// none): the tables of that state that carry it record what changes in
	// them, and the tip's readers of that state read only that (track.go).
	tok uint64
}

// NewTip adopts st as the tip at version: a state that arrived whole from the
// store (a pre-copied base, a recovered state). enc, when not nil, is the
// canonical encoding st was decoded from; the tip keeps it as its Encoding.
func NewTip(version int, st *State, enc []byte) *Tip {
	t := &Tip{ver: version, st: st}
	if enc != nil {
		t.enc.Store(&enc)
	}
	return t
}

// Version returns the version of the checkpoint the tip holds.
func (t *Tip) Version() int { return t.ver }

// State returns the tip's state (nil for the zero Tip), read-only.
func (t *Tip) State() *State { return t.st }

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

// Measure returns DiffSize(t.State(), cur) and keeps it for a Cut at version,
// which then takes it instead of sizing the delta again: the caller vouches
// that cur does not change in between. Any change of the tip (a Cut, a new
// Tip) forgets the reading. Of a state the tip tracks, it reads only the cells
// written since the last reading.
func (t *Tip) Measure(version int, cur *State) int {
	t.measured, t.measuredAt = diffSize(t.st, cur, t.tok), version+1
	return t.measured
}

// DiffInto computes cur − t.State() into d, as DiffInto(d, t.State(), cur)
// does, reading of a state the tip tracks only the cells written since the
// mark. It reads the tip and cur and changes neither.
func (t *Tip) DiffInto(d *Delta, cur *State) { diffInto(d, t.st, cur, t.tok, false) }

// Pending returns the delta size the last Measure took, or an empty delta's
// when the tip was cut or adopted since: it then is the state it came from.
func (t *Tip) Pending() int {
	if t.measuredAt == 0 {
		return emptyDeltaSize
	}
	return t.measured
}

// Advance brings the tip up to cur at version, in place, and returns what to
// Record for it. This is the checkpoint write rule, the only one: a state that
// equals the tip writes nothing; one that changed little writes the delta; and
// a fresh base — cur, copied into the tip and encoded once — is written for a
// group's first checkpoint and for a state whose delta would be at least as
// large as the state itself (windowed state churns fully between cadences).
// So a checkpoint never writes more than |σ|, and the choice depends only on
// tip and cur, never on where the tip lives. d is scratch.
//
// Advance is Cut followed by Write, which a caller may also run apart: Cut
// while cur holds still, Write later, beside whatever changes cur next.
func (t *Tip) Advance(d *Delta, version int, cur *State) (Step, []byte) {
	step, n := t.Cut(d, version, cur)
	var buf []byte
	if step != StepNone {
		buf = make([]byte, 0, n)
	}
	return step, t.Write(step, d, buf)
}

// Cut is the half of Advance that reads cur: it takes the step and brings the
// tip up to cur at version — a copy of cur for a base; for a delta, the delta
// into d and applied to the tip — and returns the step and the exact length of
// what Write will encode for it. It sizes the delta unless Measure did at
// version. cur equals the tip afterwards, and the tip tracks it (Track).
func (t *Tip) Cut(d *Delta, version int, cur *State) (Step, int) {
	measured := t.measuredAt == version+1
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
			return StepNone, 0
		}
	}
	t.enc.Store(nil)
	step := StepDelta
	if size >= cur.Size() {
		step, size = StepBase, cur.Size()
		t.st.CopyFrom(cur)
	} else {
		// The cells of tracked tables go into the tip as they are found.
		diffInto(d, t.st, cur, t.tok, true)
		d.apply(t.st, true)
	}
	t.Track(cur)
	return step, size
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
// alone advances), a delta on the chain, or a fresh base that replaces it. The
// store keeps payload and does not look inside — the caller vouches that it is
// what Tip.Advance returned, or that it decodes — until a delta takes the
// chain past the compaction bounds and it is folded: what a checkpoint costs
// its writer, and a wire, stays the delta. tip, when the caller has the
// advanced tip at hand, is what a fold encodes; without it (nil) the chain is
// replayed. The store does not keep tip. Without a base, only a base.
func (s *Store) Record(gid, version int, step Step, payload []byte, tip *Tip) error {
	e := s.groups[gid]
	if e == nil {
		if step != StepBase {
			return fmt.Errorf("statestore: delta checkpoint for untracked group %d", gid)
		}
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
		fold := e.folds(len(payload))
		e.deltas = append(e.deltas, payload)
		e.deltaBytes += len(payload)
		s.bytes += len(payload)
		if fold {
			s.fold(e, tip)
		}
	}
	return nil
}

// folds reports whether a delta of n more bytes takes e's chain past the
// compaction bounds.
func (e *entry) folds(n int) bool {
	return len(e.deltas) >= defaultMaxChain || float64(e.deltaBytes+n) > defaultCompactFactor*float64(len(e.base))
}

// FoldBound returns the largest delta that Record appends to gid's chain
// without folding it, -1 when any delta folds it and for an untracked group. A
// writer that holds the group's tip writes the base the chain would fold into
// — the tip, written as a base — for a larger delta, so the store replays
// nothing.
func (s *Store) FoldBound(gid int) int {
	if e := s.groups[gid]; e != nil {
		return FoldBound(len(e.base), len(e.deltas), e.deltaBytes)
	}
	return -1
}

// FoldBound is Store.FoldBound of a chain of a baseLen-byte base and deltas
// deltas of deltaBytes bytes in all — FoldBound(n, 0, 0) that of a chain just
// folded into an n-byte base: the compaction bounds in integers.
func FoldBound(baseLen, deltas, deltaBytes int) int {
	if deltas >= defaultMaxChain || baseLen < 2*deltaBytes {
		return -1
	}
	return (baseLen - 2*deltaBytes) / 2 // defaultCompactFactor = ½
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

// fold replaces e's chain by the one base it amounts to — tip, encoded; nil
// replays it — and leaves a chain that does not replay as it is.
func (s *Store) fold(e *entry, tip *Tip) bool {
	if tip == nil {
		tip = e.replay(&s.scratch)
	}
	if tip.st != nil {
		s.setBase(e, tip.st.Encode(make([]byte, 0, tip.st.Size())))
	}
	return tip.st != nil
}

// Checkpoint records st as gid's state at version with the store holding the
// group's tip itself: Tip.Advance decides what to write — a full snapshot the
// first time, then nothing, the delta since the previous checkpoint, or a
// fresh base — and the store records it as Record does. It returns the bytes
// appended, never more than the state's size. A group last written through
// Record has its tip replayed first. A nil st is the empty state.
func (s *Store) Checkpoint(gid, version int, st *State) int {
	if st == nil {
		st = &emptyState
	}
	tip := &Tip{}
	if e := s.groups[gid]; e != nil {
		tip = e.replay(&s.scratch)
	}
	step, enc := tip.Advance(&s.scratch, version, st)
	s.Record(gid, version, step, enc, tip) //nolint:errcheck // a zero tip writes a base
	s.groups[gid].tip = tip
	return len(enc)
}

// replay returns the tip of e's chain: the one the store holds, or else the
// base decoded and the deltas applied — the zero Tip when a recorded payload
// does not decode (the engine checks before it records).
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
	return &Tip{ver: e.version, st: st}
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
// recovery ships) plus its version; the slice is immutable. A chain is folded
// as a side effect, so repeated reads stay cheap and a state that travels
// whole leaves one base behind.
func (s *Store) EncodedState(gid int) ([]byte, int, bool) {
	e := s.groups[gid]
	if e == nil || len(e.deltas) > 0 && !s.fold(e, nil) {
		return nil, -1, false
	}
	return e.base, e.version, true
}
