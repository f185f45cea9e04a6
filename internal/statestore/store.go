package statestore

import (
	"fmt"
	"slices"

	"repro/internal/codec"
)

// storeMagic versions the durable store encoding.
const storeMagic = 0xC5

// Compaction defaults: a group's delta chain is folded into a fresh base
// once it grows past MaxChain links or past CompactFactor times the base
// size, bounding both replay length and storage overhead.
const (
	defaultMaxChain      = 8
	defaultCompactFactor = 0.5
)

// entry is one key group's incremental chain: a full encoded snapshot at
// baseVer plus encoded deltas leading to version. tip caches the
// materialized state at version so Diff-based appends and reads never
// replay the chain.
type entry struct {
	baseVer, version int
	base             []byte
	deltas           [][]byte
	deltaBytes       int
	tip              *State
}

// Store is a versioned, per-group incremental state store. Checkpointing
// appends deltas (Checkpoint), recovery and migration read materialized
// states (Materialize / EncodedState), and Encode/Decode round-trip the
// whole store for durability. A Store is not goroutine-safe: the engine
// mutates it only between periods, exactly like node statistics. The one
// concurrent entry point is Prepare, the per-group half of a checkpoint.
type Store struct {
	// MaxChain / CompactFactor tune compaction; zero values take the
	// defaults above.
	MaxChain      int
	CompactFactor float64

	groups map[int]*entry
	gids   []int // the keys of groups, ascending
	bytes  int

	// scratch is the delta Checkpoint diffs into, so the steady-state
	// checkpoint path allocates only the appended chain bytes.
	scratch Delta
}

// New returns an empty store.
func New() *Store { return &Store{groups: map[int]*entry{}} }

func (s *Store) maxChain() int {
	if s.MaxChain > 0 {
		return s.MaxChain
	}
	return defaultMaxChain
}

func (s *Store) compactFactor() float64 {
	if s.CompactFactor > 0 {
		return s.CompactFactor
	}
	return defaultCompactFactor
}

// Len returns the number of key groups with a checkpointed state.
func (s *Store) Len() int { return len(s.groups) }

// Bytes returns the total stored volume (bases plus delta chains) — the
// durable footprint the incremental design keeps close to one full
// snapshot.
func (s *Store) Bytes() int { return s.bytes }

// Has reports whether gid has a checkpointed state.
func (s *Store) Has(gid int) bool { return s.groups[gid] != nil }

// Version returns the version of gid's latest checkpoint (-1 if none).
func (s *Store) Version(gid int) int {
	e := s.groups[gid]
	if e == nil {
		return -1
	}
	return e.version
}

// Groups returns the checkpointed gids in ascending order. The slice is the
// store's own, kept sorted as groups come and go: read it, do not modify it,
// and do not hold it across a Checkpoint, Commit or Delete.
func (s *Store) Groups() []int { return s.gids }

// insert adds a new group's chain, keeping gids ascending.
func (s *Store) insert(gid int, e *entry) {
	if s.groups == nil {
		s.groups = map[int]*entry{}
	}
	s.groups[gid] = e
	i, _ := slices.BinarySearch(s.gids, gid)
	s.gids = slices.Insert(s.gids, i, gid)
}

// Step says how Advance brought a checkpoint tip up to date.
type Step uint8

const (
	// StepNone: the state equals the tip; nothing was written.
	StepNone Step = iota
	// StepDelta: the bytes are the encoded Diff(tip, cur), applied to the tip.
	StepDelta
	// StepBase: the bytes are cur encoded whole, copied into the tip.
	StepBase
)

// Advance brings tip up to cur in place and returns the bytes that record
// the step. This is the checkpoint write rule: a state that changed little
// appends the delta, and a state whose delta would be at least as large as
// the state itself (windowed state churns fully between cadences) is written
// as a fresh base instead — encoded once and copied into the tip, where the
// delta route would diff, encode, apply and then re-encode to compact. So a
// checkpoint never writes more than |σ|. The choice depends only on tip and
// cur, which is what keeps a worker's tip mirror and the controller's store
// byte-identical: both call Advance on equal states. d is scratch.
func Advance(d *Delta, tip, cur *State) ([]byte, Step) {
	size := DiffSize(tip, cur)
	if size == emptyDeltaSize {
		return nil, StepNone
	}
	if size >= cur.Size() {
		enc := cur.Encode(make([]byte, 0, cur.Size()))
		tip.CopyFrom(cur)
		return enc, StepBase
	}
	DiffInto(d, tip, cur)
	enc := d.Encode(make([]byte, 0, size))
	d.Apply(tip)
	return enc, StepDelta
}

// Pending is one group's prepared checkpoint, waiting for Commit.
type Pending struct {
	gid      int
	fresh    *entry // the chain of a group the store did not track yet
	appended int    // bytes the checkpoint wrote: its incremental cost
	grew     int    // change in the group's stored volume
}

// Prepare does the per-group work of checkpointing st as gid's state at
// version — diff against the tip, encode, advance the tip, compact the chain
// — and leaves what touches the store as a whole (tracking a new group, the
// byte total) to Commit. Prepare calls for distinct gids may run
// concurrently, each with its own scratch d, as long as nothing else uses the
// store meanwhile; the results do not depend on the schedule. A nil st
// checkpoints the empty state.
func (s *Store) Prepare(d *Delta, gid, version int, st *State) Pending {
	if st == nil {
		st = &State{}
	}
	e := s.groups[gid]
	if e == nil {
		base := st.Encode(make([]byte, 0, st.Size()))
		e = &entry{baseVer: version, version: version, base: base, tip: st.Clone()}
		return Pending{gid: gid, fresh: e, appended: len(base), grew: len(base)}
	}
	before := len(e.base) + e.deltaBytes
	e.version = version
	enc, step := Advance(d, e.tip, st)
	switch step {
	case StepBase:
		e.base, e.baseVer = enc, version
		e.deltas, e.deltaBytes = nil, 0
	case StepDelta:
		e.deltas = append(e.deltas, enc)
		e.deltaBytes += len(enc)
		if len(e.deltas) > s.maxChain() || float64(e.deltaBytes) > s.compactFactor()*float64(len(e.base)) {
			e.compact()
		}
	}
	return Pending{gid: gid, appended: len(enc), grew: len(e.base) + e.deltaBytes - before}
}

// Commit finishes a prepared checkpoint and returns the bytes it appended.
// Commit is serial; committing a batch in ascending gid keeps everything the
// store reports independent of how the Prepare calls were scheduled.
func (s *Store) Commit(p Pending) int {
	if p.fresh != nil {
		s.insert(p.gid, p.fresh)
	}
	s.bytes += p.grew
	return p.appended
}

// Checkpoint records st as gid's state at version. The first checkpoint of
// a group stores a full snapshot; later ones append the delta since the
// previous checkpoint, or a fresh base when that delta would be no smaller
// than the state (see Advance), and fold the chain into a fresh base when it
// grows past the compaction bounds. It returns the bytes appended — the
// incremental cost of this checkpoint, never more than the state's size. A
// nil st checkpoints the empty state.
func (s *Store) Checkpoint(gid, version int, st *State) int {
	return s.Commit(s.Prepare(&s.scratch, gid, version, st))
}

// compact folds e's chain into a fresh base at the tip version.
func (e *entry) compact() {
	e.base = e.tip.Encode(make([]byte, 0, e.tip.Size()))
	e.baseVer = e.version
	e.deltas, e.deltaBytes = nil, 0
}

// ChainLen returns the number of deltas stacked on gid's base (0 if the
// group is absent or freshly compacted).
func (s *Store) ChainLen(gid int) int {
	e := s.groups[gid]
	if e == nil {
		return 0
	}
	return len(e.deltas)
}

// Materialize returns a copy of gid's checkpointed state and its version.
func (s *Store) Materialize(gid int) (*State, int, bool) {
	e := s.groups[gid]
	if e == nil {
		return nil, -1, false
	}
	return e.tip.Clone(), e.version, true
}

// EncodedState returns gid's checkpointed state fully encoded (the bytes a
// pre-copy ships) plus its version. The returned slice is immutable: the
// store never mutates an encoding it handed out. Long chains are compacted
// as a side effect so repeated reads stay cheap.
func (s *Store) EncodedState(gid int) ([]byte, int, bool) {
	e := s.groups[gid]
	if e == nil {
		return nil, -1, false
	}
	if len(e.deltas) > 0 {
		s.bytes -= len(e.base) + e.deltaBytes
		e.compact()
		s.bytes += len(e.base)
	}
	return e.base, e.version, true
}

// DeltaSize returns the encoded size of Diff(checkpoint, cur) — the bytes a
// checkpoint-assisted migration of gid would synchronously transfer if the
// live state is cur — computed without building the delta (DiffSize). ok is
// false when gid has no checkpoint.
func (s *Store) DeltaSize(gid int, cur *State) (int, bool) {
	e := s.groups[gid]
	if e == nil {
		return 0, false
	}
	return DiffSize(e.tip, cur), true
}

// Delete drops gid's chain.
func (s *Store) Delete(gid int) {
	e := s.groups[gid]
	if e == nil {
		return
	}
	s.bytes -= len(e.base) + e.deltaBytes
	delete(s.groups, gid)
	i, _ := slices.BinarySearch(s.gids, gid)
	s.gids = slices.Delete(s.gids, i, i+1)
}

// Encode serializes the whole store (appended to buf) for durable storage.
func (s *Store) Encode(buf []byte) []byte {
	buf = append(buf, storeMagic)
	buf = codec.AppendUvarint(buf, uint64(len(s.groups)))
	for _, gid := range s.gids {
		e := s.groups[gid]
		buf = codec.AppendUvarint(buf, uint64(gid))
		buf = codec.AppendUvarint(buf, uint64(e.baseVer))
		buf = codec.AppendUvarint(buf, uint64(e.version))
		buf = codec.AppendUvarint(buf, uint64(len(e.base)))
		buf = append(buf, e.base...)
		buf = codec.AppendUvarint(buf, uint64(len(e.deltas)))
		for _, d := range e.deltas {
			buf = codec.AppendUvarint(buf, uint64(len(d)))
			buf = append(buf, d...)
		}
	}
	return buf
}

// Decode reads a store written by Encode. maxGID, when positive, bounds
// acceptable group ids (the engine passes its topology's group count); any
// structural problem — truncation, duplicate or out-of-order gids,
// out-of-range gids, undecodable bases or deltas, version inversions —
// fails the decode rather than producing a partial store.
func Decode(b []byte, maxGID int) (*Store, error) {
	if len(b) == 0 || b[0] != storeMagic {
		return nil, fmt.Errorf("statestore: bad store magic")
	}
	b = b[1:]
	n, b, err := codec.ReadUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("statestore: store group count: %w", err)
	}
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("statestore: store claims %d groups in %d bytes", n, len(b))
	}
	s := New()
	prevGID := -1
	for i := uint64(0); i < n; i++ {
		var gid, baseVer, version, baseLen uint64
		if gid, b, err = codec.ReadUvarint(b); err != nil {
			return nil, fmt.Errorf("statestore: store gid: %w", err)
		}
		if int(gid) <= prevGID {
			return nil, fmt.Errorf("statestore: duplicate or out-of-order gid %d", gid)
		}
		if maxGID > 0 && gid >= uint64(maxGID) {
			return nil, fmt.Errorf("statestore: gid %d out of range (max %d)", gid, maxGID)
		}
		prevGID = int(gid)
		if baseVer, b, err = codec.ReadUvarint(b); err != nil {
			return nil, fmt.Errorf("statestore: gid %d base version: %w", gid, err)
		}
		if version, b, err = codec.ReadUvarint(b); err != nil {
			return nil, fmt.Errorf("statestore: gid %d version: %w", gid, err)
		}
		if version < baseVer {
			return nil, fmt.Errorf("statestore: gid %d version %d below base %d", gid, version, baseVer)
		}
		if baseLen, b, err = codec.ReadUvarint(b); err != nil {
			return nil, fmt.Errorf("statestore: gid %d base length: %w", gid, err)
		}
		if uint64(len(b)) < baseLen {
			return nil, fmt.Errorf("statestore: gid %d base truncated (%d of %d bytes)", gid, len(b), baseLen)
		}
		base := append([]byte(nil), b[:baseLen]...)
		b = b[baseLen:]
		tip, err := DecodeState(base)
		if err != nil {
			return nil, fmt.Errorf("statestore: gid %d base: %w", gid, err)
		}
		var nd uint64
		if nd, b, err = codec.ReadUvarint(b); err != nil {
			return nil, fmt.Errorf("statestore: gid %d delta count: %w", gid, err)
		}
		if nd > uint64(len(b)) {
			return nil, fmt.Errorf("statestore: gid %d claims %d deltas in %d bytes", gid, nd, len(b))
		}
		e := &entry{baseVer: int(baseVer), version: int(version), base: base}
		for j := uint64(0); j < nd; j++ {
			var dl uint64
			if dl, b, err = codec.ReadUvarint(b); err != nil {
				return nil, fmt.Errorf("statestore: gid %d delta %d length: %w", gid, j, err)
			}
			if uint64(len(b)) < dl {
				return nil, fmt.Errorf("statestore: gid %d delta %d truncated (%d of %d bytes)", gid, j, len(b), dl)
			}
			enc := append([]byte(nil), b[:dl]...)
			b = b[dl:]
			d, rest, err := DecodeDelta(enc)
			if err != nil {
				return nil, fmt.Errorf("statestore: gid %d delta %d: %w", gid, j, err)
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("statestore: gid %d delta %d has %d trailing bytes", gid, j, len(rest))
			}
			d.Apply(tip)
			e.deltas = append(e.deltas, enc)
			e.deltaBytes += len(enc)
		}
		e.tip = tip
		s.groups[int(gid)] = e
		s.gids = append(s.gids, int(gid)) // ascending: checked above
		s.bytes += len(base) + e.deltaBytes
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("statestore: %d trailing bytes after store", len(b))
	}
	return s, nil
}
