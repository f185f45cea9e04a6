package statestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/codec"
)

// refState is the map-backed model the arena State replaced. The
// differential test below drives both through identical randomized op
// sequences and demands semantic equality plus byte-identical encodings —
// the property that keeps checkpoints and wire vectors stable across the
// representation change.
type refState struct {
	nums map[string]float64
	tabs map[string]map[string]float64
}

func newRef() *refState {
	return &refState{nums: map[string]float64{}, tabs: map[string]map[string]float64{}}
}

func (r *refState) table(name string) map[string]float64 {
	t := r.tabs[name]
	if t == nil {
		t = map[string]float64{}
		r.tabs[name] = t
	}
	return t
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// encode replicates the historical map-backed State.Encode byte for byte:
// float map, the retired string map (always empty), nested float map, each
// with sorted keys.
func (r *refState) encode() []byte {
	b := codec.AppendUvarint(nil, uint64(len(r.nums)))
	for _, k := range sortedKeys(r.nums) {
		b = codec.AppendString(b, k)
		b = codec.AppendFloat64(b, r.nums[k])
	}
	b = codec.AppendUvarint(b, 0) // retired: string registers
	b = codec.AppendUvarint(b, uint64(len(r.tabs)))
	for _, name := range sortedKeys(r.tabs) {
		b = codec.AppendString(b, name)
		t := r.tabs[name]
		b = codec.AppendUvarint(b, uint64(len(t)))
		for _, ck := range sortedKeys(t) {
			b = codec.AppendString(b, ck)
			b = codec.AppendFloat64(b, t[ck])
		}
	}
	return b
}

// checkAgainstRef asserts st and r agree semantically and byte for byte.
func checkAgainstRef(t *testing.T, st *State, r *refState, ctx string) {
	t.Helper()
	if st.numN != len(r.nums) || st.tabN != len(r.tabs) {
		t.Fatalf("%s: counts (%d,%d) vs ref (%d,%d)", ctx,
			st.numN, st.tabN, len(r.nums), len(r.tabs))
	}
	for k, v := range r.nums {
		if got, ok := st.LookupNum(k); !ok || got != v {
			t.Fatalf("%s: num %q = %v (ok=%v), want %v", ctx, k, got, ok, v)
		}
	}
	for name, rt := range r.tabs {
		tab := st.LookupTable(name)
		if tab == nil || tab.Len() != len(rt) {
			t.Fatalf("%s: table %q missing or wrong size", ctx, name)
		}
		for ck, v := range rt {
			if got, ok := tab.Lookup(ck); !ok || got != v {
				t.Fatalf("%s: table %q cell %q = %v (ok=%v), want %v", ctx, name, ck, got, ok, v)
			}
		}
	}
	enc, ref := st.Encode(nil), r.encode()
	if !bytes.Equal(enc, ref) {
		t.Fatalf("%s: encodings diverge\n state: %x\n ref:   %x", ctx, enc, ref)
	}
	if st.Size() != len(ref) {
		t.Fatalf("%s: Size()=%d, encoded %d bytes", ctx, st.Size(), len(ref))
	}
}

// TestStateDifferentialVsMapModel drives the arena-backed State and the
// map-backed reference model through the same randomized op sequences —
// including cell deletions, table churn, resets, Reset recycling, decode-into
// round trips, and enough distinct names to overflow the initial symbol
// table — asserting semantic equality and byte-identical encodes throughout.
func TestStateDifferentialVsMapModel(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := NewState()
		r := newRef()
		prev := NewState()
		prevRefEnc := r.encode()
		var d Delta
		for op := 0; op < 2000; op++ {
			// Names drawn from a pool larger than minSymSlots so the symbol
			// table grows mid-sequence.
			name := fmt.Sprintf("f%02d", rng.Intn(40))
			cell := fmt.Sprintf("c%02d", rng.Intn(30))
			switch rng.Intn(10) {
			case 0:
				v := rng.Float64() * 100
				st.Add(name, v)
				r.nums[name] += v
			case 1:
				v := rng.Float64() * 100
				st.setNum(st.intern(name, true), v)
				r.nums[name] = v
			case 2:
				// Was counter deletion: a counter is never deleted.
			case 3:
				v := rng.Float64()
				st.Table(name).Set(cell, v)
				r.table(name)[cell] = v
			case 4:
				v := rng.Float64()
				st.Table(name).Add(cell, v)
				r.table(name)[cell] += v
			case 5:
				if tab := st.LookupTable(name); tab != nil {
					tab.delete(cell)
					delete(r.tabs[name], cell)
				}
			case 6:
				st.ClearTable(name)
				delete(r.tabs, name)
			case 7:
				// Bare Table() creates an empty table that IS encoded.
				st.Table(name)
				r.table(name)
			case 8:
				if rng.Intn(20) == 0 {
					// A state that starts over is diffed from the empty state:
					// no delta drops its counters.
					st.Reset()
					prev.Reset()
					r = newRef()
				}
			case 9:
				if rng.Intn(10) == 0 {
					// Recycle by Reset and decode back into the recycled
					// arena (the migration-adoption path).
					enc := st.Encode(nil)
					st.Reset()
					if err := DecodeStateInto(enc, st); err != nil {
						t.Fatalf("seed %d op %d: decode-into: %v", seed, op, err)
					}
				}
			}
			if op%97 == 0 {
				checkAgainstRef(t, st, r, fmt.Sprintf("seed %d op %d", seed, op))
				// Differential Diff/Apply: applying the delta since prev to
				// prev (in place, into its existing storage) must land
				// exactly on st — byte for byte.
				DiffInto(&d, prev, st)
				if got := d.Size(); got != DiffSize(prev, st) {
					t.Fatalf("seed %d op %d: Delta.Size=%d, DiffSize=%d", seed, op, got, DiffSize(prev, st))
				}
				d.Apply(prev)
				if !bytes.Equal(prev.Encode(nil), st.Encode(nil)) {
					t.Fatalf("seed %d op %d: Apply(Diff(prev,st)) did not reproduce st", seed, op)
				}
				_ = prevRefEnc
				prevRefEnc = r.encode()
			}
		}
		checkAgainstRef(t, st, r, fmt.Sprintf("seed %d final", seed))
	}
}

// TestStateCloneMatchesModel covers the remaining bulk operations against
// the model: Clone, and CopyFrom into a dirty state.
func TestStateCloneMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	st := randState(rng, 15)
	want := newRef()
	for sym, k := range st.kind {
		if k&kNum != 0 {
			want.nums[st.names[sym]] = st.numVal[sym]
		}
		if k&kTab != 0 {
			cells := want.table(st.names[sym]) // an empty table is part of the state too
			for ck, v := range st.tabs[sym].All() {
				cells[ck] = v
			}
		}
	}
	checkAgainstRef(t, st.Clone(), want, "clone")
	dirty := randState(rng, 15)
	dirty.CopyFrom(st)
	checkAgainstRef(t, dirty, want, "CopyFrom into a dirty state")
}
