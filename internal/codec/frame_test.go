package codec

import (
	"fmt"
	"testing"
)

func TestFrameVersion(t *testing.T) {
	frame := AppendFrameHeader(nil, FrameV2)
	frame = AppendBatchItem(frame, []byte("abc"))
	ver, payload, err := FrameVersion(frame)
	if err != nil || ver != FrameV2 {
		t.Fatalf("got version 0x%02x, err %v", ver, err)
	}
	var items int
	if err := DecodeBatch(payload, func(item []byte) error { items++; return nil }); err != nil || items != 1 {
		t.Fatalf("payload decode: %d items, err %v", items, err)
	}
	if _, _, err := FrameVersion(nil); err == nil {
		t.Fatal("empty frame did not error")
	}
	if _, _, err := FrameVersion(AppendBatchItem([]byte{0xF1}, []byte("abc"))); err == nil {
		t.Fatal("frame headed by the retired version byte 0xF1 did not error")
	}
	if _, _, err := FrameVersion([]byte{0x05, 'h', 'e', 'l', 'l', 'o'}); err == nil {
		t.Fatal("headerless (legacy-shaped) frame did not error")
	}
}

func TestDictRoundTrip(t *testing.T) {
	var d Dict
	names := []string{"article", "bytes", "article", "geo", "bytes", "article", "", "geo"}
	var buf []byte
	for _, n := range names {
		buf = d.AppendRef(buf, n)
	}
	if d.Len() != 4 { // article, bytes, geo, ""
		t.Fatalf("dictionary has %d entries, want 4", d.Len())
	}
	var tbl DictTable
	b := buf
	for i, want := range names {
		var got string
		var err error
		if got, b, err = tbl.ReadRef(b); err != nil {
			t.Fatalf("ref %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("ref %d: got %q want %q", i, got, want)
		}
	}
	if len(b) != 0 {
		t.Fatalf("%d trailing bytes", len(b))
	}
	if tbl.Len() != d.Len() {
		t.Fatalf("decoder table has %d entries, encoder %d", tbl.Len(), d.Len())
	}
	// A back-reference costs one byte for small ids; a definition costs
	// 1 + len(name). The 8 refs above: 4 definitions + 4 back-references.
	wantLen := 0
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			wantLen++
		} else {
			wantLen += 1 + len(n)
			seen[n] = true
		}
	}
	if len(buf) != wantLen {
		t.Fatalf("encoded %d bytes, want %d", len(buf), wantLen)
	}
}

// TestDictMapPromotion drives the encoder past the linear-scan threshold and
// checks ids stay consistent across the promotion to a map index.
func TestDictMapPromotion(t *testing.T) {
	var d Dict
	var buf []byte
	const n = 3 * dictScanMax
	for i := 0; i < n; i++ {
		buf = d.AppendRef(buf, fmt.Sprintf("name-%02d", i))
	}
	for i := 0; i < n; i++ { // all back-references now
		buf = d.AppendRef(buf, fmt.Sprintf("name-%02d", i))
	}
	var tbl DictTable
	b := buf
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			got, rest, err := tbl.ReadRef(b)
			if err != nil {
				t.Fatalf("pass %d ref %d: %v", pass, i, err)
			}
			if want := fmt.Sprintf("name-%02d", i); got != want {
				t.Fatalf("pass %d ref %d: got %q want %q", pass, i, got, want)
			}
			b = rest
		}
	}
	// Reset must clear both the slice and the map index.
	d.Reset()
	if d.Len() != 0 {
		t.Fatalf("Len %d after Reset", d.Len())
	}
	out := d.AppendRef(nil, "name-05")
	if x, _, _ := ReadUvarint(out); x&1 != 1 {
		t.Fatal("after Reset, a previously-known name must re-define, not back-reference")
	}
}

// TestDictCapLockstep drives the dictionary past maxDictEntries and checks
// encoder and decoder stay in lockstep: past-cap names are still carried
// (as repeated inline definitions) and resolve correctly, registered names
// keep back-referencing, and neither table exceeds the cap.
func TestDictCapLockstep(t *testing.T) {
	var d Dict
	const extra = 5
	var buf []byte
	name := func(i int) string { return fmt.Sprintf("n%05x", i) }
	for i := 0; i < maxDictEntries+extra; i++ {
		buf = d.AppendRef(buf, name(i))
	}
	// Registered and unregistered names both remain encodable.
	buf = d.AppendRef(buf, name(0))                // back-reference
	buf = d.AppendRef(buf, name(maxDictEntries+1)) // past cap: re-defined inline
	if d.Len() > maxDictEntries {
		t.Fatalf("encoder table %d > cap", d.Len())
	}
	var tbl DictTable
	b := buf
	check := func(want string) {
		t.Helper()
		got, rest, err := tbl.ReadRef(b)
		if err != nil {
			t.Fatalf("ReadRef(%q): %v", want, err)
		}
		if got != want {
			t.Fatalf("got %q want %q", got, want)
		}
		b = rest
	}
	for i := 0; i < maxDictEntries+extra; i++ {
		check(name(i))
	}
	check(name(0))
	check(name(maxDictEntries + 1))
	if len(b) != 0 {
		t.Fatalf("%d trailing bytes", len(b))
	}
	if tbl.Len() > maxDictEntries {
		t.Fatalf("decoder table %d > cap", tbl.Len())
	}
}

func TestDictTableMalformed(t *testing.T) {
	// Out-of-range id.
	var tbl DictTable
	if _, _, err := tbl.ReadRef(AppendUvarint(nil, 4<<1)); err == nil {
		t.Fatal("out-of-range id did not error")
	}
	// Truncated definition: claims 10 name bytes, provides 3.
	tbl.Reset()
	bad := AppendUvarint(nil, 10<<1|1)
	bad = append(bad, "abc"...)
	if _, _, err := tbl.ReadRef(bad); err == nil {
		t.Fatal("truncated definition did not error")
	}
	// Dangling uvarint.
	tbl.Reset()
	if _, _, err := tbl.ReadRef([]byte{0x80}); err == nil {
		t.Fatal("dangling uvarint did not error")
	}
	// Duplicate definitions are tolerated (each gets its own id).
	tbl.Reset()
	var d Dict
	buf := d.AppendRef(nil, "dup")
	buf = append(buf, AppendUvarint(nil, uint64(len("dup"))<<1|1)...)
	buf = append(buf, "dup"...)
	a, buf2, err := tbl.ReadRef(buf)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := tbl.ReadRef(buf2)
	if err != nil || a != "dup" || b != "dup" {
		t.Fatalf("duplicate definition: %q %q err %v", a, b, err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("duplicate names should occupy 2 ids, table has %d", tbl.Len())
	}
}

// TestDictNamesOutliveTheFrame: a name ReadRef returns is a string of its
// own — the frame may be overwritten afterwards — and a name seen in an earlier
// frame is defined again without allocating.
func TestDictNamesOutliveTheFrame(t *testing.T) {
	var d Dict
	frame := d.AppendRef(d.AppendRef(nil, "article"), "bytes")
	var tbl DictTable
	read := func() (string, string) {
		tbl.Reset()
		a, rest, err := tbl.ReadRef(frame)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := tbl.ReadRef(rest)
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	a, b := read()
	if allocs := testing.AllocsPerRun(100, func() { read() }); allocs != 0 {
		t.Fatalf("re-defining known names: %.0f allocations per frame", allocs)
	}
	for i := range frame {
		frame[i] = 0xA5
	}
	if a != "article" || b != "bytes" {
		t.Fatalf("names alias the frame: %q %q", a, b)
	}
	// More names than the cache holds still resolve, each to itself.
	for i := 0; i < 40; i++ {
		want := fmt.Sprintf("field-%d", i)
		var one Dict
		got, _, err := tbl.ReadRef(one.AppendRef(nil, want))
		if err != nil || got != want {
			t.Fatalf("name %d: %q, %v", i, got, err)
		}
	}
}
