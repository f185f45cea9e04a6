package statestore

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func randState(rng *rand.Rand, scale int) *State {
	st := NewState()
	fill(rng, st, scale)
	return st
}

// fill adds random counters and table cells to st.
func fill(rng *rand.Rand, st *State, scale int) {
	for i := 0; i < rng.Intn(scale+1); i++ {
		st.Add(fmt.Sprintf("n%d", rng.Intn(scale)), rng.Float64()*100)
	}
	for i := 0; i < rng.Intn(4); i++ {
		t := st.Table(fmt.Sprintf("t%d", rng.Intn(3)))
		for j := 0; j < rng.Intn(scale+1); j++ {
			t.Set(fmt.Sprintf("c%d", rng.Intn(scale)), rng.Float64())
		}
	}
}

// fieldNames returns the names of st's fields of one kind (kNum, kTab) in
// storage order: a copy, so the caller may edit st while it walks them.
func fieldNames(st *State, bit uint8) []string {
	var names []string
	for sym, k := range st.kind {
		if k&bit != 0 {
			names = append(names, st.names[sym])
		}
	}
	return names
}

// keepCounters returns next after giving it, at 0, every counter of prev it
// lacks: a state replaced wholesale keeps its counters, as every state the
// engine checkpoints does (Diff's precondition).
func keepCounters(prev, next *State) *State {
	for _, k := range fieldNames(prev, kNum) {
		next.Add(k, 0)
	}
	return next
}

// mutate applies random edits including deletions of cells and tables — the
// delta must express every kind of change. Counters are only added to: a
// state never loses one. Keys are collected before mutating (the open-
// addressed storage must not be edited mid-iteration).
func mutate(rng *rand.Rand, st *State) {
	for _, k := range fieldNames(st, kNum) {
		if rng.Intn(3) == 0 {
			st.Add(k, 1)
		}
	}
	st.Add(fmt.Sprintf("n-new%d", rng.Intn(100)), 1)
	for _, name := range fieldNames(st, kTab) {
		if rng.Intn(5) == 0 {
			st.ClearTable(name)
			continue
		}
		t := st.Table(name)
		var cells []string
		for k := range t.All() {
			cells = append(cells, k)
		}
		for _, k := range cells {
			switch rng.Intn(4) {
			case 0:
				t.Add(k, 0.5)
			case 1:
				t.delete(k)
			}
		}
		t.Set(fmt.Sprintf("c-new%d", rng.Intn(100)), rng.Float64())
	}
}

// statesEqual reports whether a and b hold the same fields: equal states have
// equal canonical encodings.
func statesEqual(a, b *State) bool { return bytes.Equal(a.Encode(nil), b.Encode(nil)) }

// deltaEmpty reports whether d changes nothing.
func deltaEmpty(d *Delta) bool {
	return len(d.numSet) == 0 && len(d.tabSet) == 0 && len(d.tabCellDel) == 0 && len(d.tabDel) == 0
}

// chainLen returns the number of deltas stacked on gid's base.
func chainLen(s *Store, gid int) int {
	if e := s.groups[gid]; e != nil {
		return len(e.deltas)
	}
	return 0
}

func TestDiffApplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		old := randState(rng, 12)
		new := old.Clone()
		mutate(rng, new)
		d := Diff(old, new)
		got := old.Clone()
		d.Apply(got)
		if !statesEqual(got, new) {
			t.Fatalf("iter %d: Apply(Diff(old,new)) != new\nold=%+v\nnew=%+v\ngot=%+v", i, old, new, got)
		}
		// Encode/Decode round trip preserves the delta, and both size
		// computations match the encoding exactly.
		enc := d.Encode(nil)
		if len(enc) != d.Size() {
			t.Fatalf("iter %d: Size()=%d, len(Encode)=%d", i, d.Size(), len(enc))
		}
		if got := DiffSize(old, new); got != len(enc) {
			t.Fatalf("iter %d: DiffSize=%d, len(Encode)=%d", i, got, len(enc))
		}
		d2 := &Delta{}
		rest, err := DecodeDeltaInto(enc, d2)
		if err != nil || len(rest) != 0 {
			t.Fatalf("iter %d: decode delta: %v (%d trailing)", i, err, len(rest))
		}
		got2 := old.Clone()
		d2.Apply(got2)
		if !statesEqual(got2, new) {
			t.Fatalf("iter %d: decoded delta diverges", i)
		}
	}
}

func TestDiffExactWithSpecialFloats(t *testing.T) {
	old := NewState()
	old.Add("x", 1)
	new := NewState()
	new.Add("x", math.NaN())
	new.Add("inf", math.Inf(1))
	d := Diff(old, new)
	enc := d.Encode(nil)
	d2 := &Delta{}
	if _, err := DecodeDeltaInto(enc, d2); err != nil {
		t.Fatal(err)
	}
	got := old.Clone()
	d2.Apply(got)
	if !math.IsNaN(got.Num("x")) || !math.IsInf(got.Num("inf"), 1) {
		t.Fatalf("special floats lost: x=%v inf=%v", got.Num("x"), got.Num("inf"))
	}
}

func TestStoreIncrementalChain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New()
	cur := randState(rng, 20)
	if app := s.Checkpoint(5, 1, cur); app != len(cur.Encode(nil)) {
		t.Fatalf("first checkpoint appended %d, want full snapshot", app)
	}
	for v := 2; v <= 30; v++ {
		cur = cur.Clone()
		mutate(rng, cur)
		s.Checkpoint(5, v, cur)
		got, ver, ok := s.Materialize(5)
		if !ok || ver != v {
			t.Fatalf("v%d: materialize ver=%d ok=%v", v, ver, ok)
		}
		if !statesEqual(got, cur) {
			t.Fatalf("v%d: materialized state diverged", v)
		}
		// Compaction bounds the chain and the footprint.
		if cl := chainLen(s, 5); cl > defaultMaxChain {
			t.Fatalf("v%d: chain length %d exceeds max %d", v, cl, defaultMaxChain)
		}
	}
	// Unchanged checkpoint appends nothing but advances the version.
	if app := s.Checkpoint(5, 31, cur); app != 0 {
		t.Fatalf("no-op checkpoint appended %d", app)
	}
	if s.Version(5) != 31 {
		t.Fatalf("version = %d, want 31", s.Version(5))
	}

	// EncodedState equals the materialized encoding and compacts.
	enc, ver, ok := s.EncodedState(5)
	if !ok || ver != 31 {
		t.Fatalf("EncodedState ver=%d ok=%v", ver, ok)
	}
	dec, err := DecodeState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(dec, cur) {
		t.Fatal("EncodedState does not round-trip to the tip state")
	}
	if chainLen(s, 5) != 0 {
		t.Fatal("EncodedState must compact the chain")
	}

	// DiffSize against the tip reflects the synchronous transfer cost of a
	// live state.
	live := cur.Clone()
	live.Add("extra", 1)
	tip, _, ok := s.Materialize(5)
	if dsz := DiffSize(tip, live); !ok || dsz != Diff(cur, live).Size() {
		t.Fatalf("DiffSize against the tip = %d ok=%v", dsz, ok)
	}
}

// Payloads whose retired sections are not empty, as builds that still had
// string registers or counter deletion wrote them: a state holding register
// s = "v", deltas setting it and deleting it, and the delta of
// TestEncodingsKeepTheirBytes with counter n2 deleted. Every decoder rejects
// them.
var (
	retiredRegisterState = []byte{0x00, 0x01, 0x01, 's', 0x01, 'v', 0x00}
	retiredStrSetDelta   = []byte{0x00, 0x00, 0x01, 0x01, 's', 0x01, 'v', 0x00, 0x00, 0x00, 0x00}
	retiredStrDelDelta   = []byte{0x00, 0x00, 0x00, 0x01, 0x01, 's', 0x00, 0x00, 0x00}
	retiredNumDelDelta   = mustHex("01026e310000000000000040" + // NumSet
		"01026e32" + // retired: counters deleted, n2
		"0000" + // retired: string registers set, deleted
		"010274310101610000000000001440" + // TabSet
		"01027431010162" + // TabCellDel
		"01027432") // TabDel
)

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// TestEncodingsKeepTheirBytes pins the canonical bytes of a state and of a
// delta, recorded before string registers and counter deletion were retired:
// the retired sections keep their zero counts (the state's byte after its
// counters, the delta's three bytes after its counters set), so |σ_k|, |Δ_k|
// and every stored checkpoint are what they were. A payload whose retired
// count is not zero fails to decode.
func TestEncodingsKeepTheirBytes(t *testing.T) {
	st := NewState()
	st.Add("count", 3)
	st.Add("avg", 1.5)
	st.Table("win").Set("b", 2)
	st.Table("win").Set("a", -1)
	st.Table("top").Set("k", 0.25)
	const wantState = "0203617667000000000000f83f05636f756e740000000000000840" + // counters
		"00" + // retired: string registers
		"0203746f7001016b000000000000d03f0377696e020161000000000000f0bf01620000000000000040" // tables
	if got := hex.EncodeToString(st.Encode(nil)); got != wantState {
		t.Fatalf("state bytes\n got %s\nwant %s", got, wantState)
	}

	old := NewState()
	old.Add("n1", 1)
	old.Add("n2", 2)
	old.Table("t1").Set("a", 1)
	old.Table("t1").Set("b", 2)
	old.Table("t2").Set("x", 3)
	cur := old.Clone()
	cur.Add("n1", 1)
	cur.Table("t1").Set("a", 5)
	cur.Table("t1").delete("b")
	cur.ClearTable("t2")
	const wantDelta = "01026e310000000000000040" + // NumSet
		"00" + // retired: counters deleted
		"0000" + // retired: string registers set, deleted
		"010274310101610000000000001440" + // TabSet
		"01027431010162" + // TabCellDel
		"01027432" // TabDel
	if got := hex.EncodeToString(Diff(old, cur).Encode(nil)); got != wantDelta {
		t.Fatalf("delta bytes\n got %s\nwant %s", got, wantDelta)
	}

	// Each is refused for its retired count, not for what reading on past it
	// would trip over.
	retired := func(err error) bool { return err != nil && strings.Contains(err.Error(), "retired section") }
	if err := CheckState(retiredRegisterState); !retired(err) {
		t.Errorf("CheckState on a state with a string register: %v", err)
	}
	if err := DecodeStateInto(retiredRegisterState, NewState()); !retired(err) {
		t.Errorf("DecodeStateInto on a state with a string register: %v", err)
	}
	for name, b := range map[string][]byte{"numdel": retiredNumDelDelta, "strset": retiredStrSetDelta, "strdel": retiredStrDelDelta} {
		if _, err := DecodeDeltaInto(b, &Delta{}); !retired(err) {
			t.Errorf("DecodeDeltaInto on a delta with a %s entry: %v", name, err)
		}
	}
}
