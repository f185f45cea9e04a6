package codec

import "fmt"

// Wire format v2: versioned batch frames with a per-frame field-name
// dictionary.
//
// A frame is one contiguous byte buffer shipped between nodes, versioned by a
// leading magic byte:
//
//	frame := 0xF2, then items              (items are v2 tuple records)
//	item  := uvarint(len), len bytes       (AppendBatchItem / DecodeBatch)
//
// Records reference field names through a per-frame dictionary instead of
// repeating the name bytes in every record. The dictionary is built
// incrementally and carried inline: the first record that uses a name embeds
// its bytes (a definition), every later record references it by a small
// varint id. A name reference is a single uvarint X:
//
//	X & 1 == 0  →  back-reference to dictionary entry id X>>1
//	X & 1 == 1  →  definition: X>>1 name bytes follow; the name is appended
//	               to the dictionary and gets the next id (0, 1, 2, ...)
//
// Both sides therefore build the same id ↔ name table in lockstep, and the
// dictionary costs nothing when unused. The dictionary resets at every frame
// boundary, so frames stay self-contained (any frame decodes alone, in order).
//
// A record's encoded length depends on its frame: the record that defines a
// name is longer than one that refers back to it. Both halves count what each
// reference took beyond one byte (Dict.TakeExtra, DictTable.TakeExtra), so a
// record's length less that count — its length with every name one byte long
// — is a function of the record alone, and the same on sender and receiver.
// The engine's byte counters and serialization costs use that length.
//
// FrameV2 is the version byte; FrameVersion rejects every other leading byte.
const FrameV2 byte = 0xF2

// maxDictEntries bounds a frame's dictionary on both sides: past the cap,
// definitions are still written and read inline but no longer registered,
// so encoder and decoder stay in lockstep, every id stays below the cap,
// and a hostile frame cannot make the decoder table grow without bound.
// Real frames hold a handful of op-local field names.
const maxDictEntries = 1 << 16

// AppendFrameHeader starts a frame of the given version in dst.
func AppendFrameHeader(dst []byte, version byte) []byte {
	return append(dst, version)
}

// FrameVersion splits a frame into its version and payload (the items).
// Unknown leading bytes are an error: every frame built by this package's
// current encoders carries a version byte.
func FrameVersion(frame []byte) (version byte, payload []byte, err error) {
	if len(frame) == 0 {
		return 0, nil, fmt.Errorf("codec: empty frame")
	}
	if frame[0] == FrameV2 {
		return FrameV2, frame[1:], nil
	}
	return 0, nil, fmt.Errorf("codec: unknown frame version byte 0x%02x", frame[0])
}

// Dict is the encoder half of a per-frame field-name dictionary. Zero value
// is ready; Reset it at every frame boundary. Not safe for concurrent use
// (each sender outbox owns one).
type Dict struct {
	names []string
	// idx accelerates lookups once the name set outgrows a linear scan
	// (payloads almost never do; it stays nil on the hot path).
	idx map[string]int
	// extra counts the bytes the references written since the last TakeExtra
	// took beyond one each.
	extra int
}

// dictScanMax is the dictionary size up to which encoder lookups linear-scan
// instead of maintaining a map.
const dictScanMax = 16

// Reset clears the dictionary for a new frame. The backing table is reused.
func (d *Dict) Reset() {
	d.names = d.names[:0]
	d.extra = 0
	if d.idx != nil {
		clear(d.idx)
	}
}

// TakeExtra returns the bytes the references appended since the last call
// took beyond one each, and starts counting again.
func (d *Dict) TakeExtra() int {
	n := d.extra
	d.extra = 0
	return n
}

// Len returns the number of names defined so far in this frame.
func (d *Dict) Len() int { return len(d.names) }

// AppendRef appends a reference to name: a back-reference if the name is
// already in this frame's dictionary, an inline definition (which assigns
// the next id) otherwise.
func (d *Dict) AppendRef(dst []byte, name string) []byte {
	if d.idx != nil {
		if id, ok := d.idx[name]; ok {
			return d.backRef(dst, id)
		}
	} else {
		for id, n := range d.names {
			if n == name {
				return d.backRef(dst, id)
			}
		}
	}
	// New name: define inline. Past the entry cap the definition is still
	// written but not registered (mirrored by ReadRef), so the frame stays
	// decodable instead of growing a table its receiver would refuse.
	if len(d.names) < maxDictEntries {
		id := len(d.names)
		d.names = append(d.names, name)
		if d.idx != nil {
			d.idx[name] = id
		} else if len(d.names) > dictScanMax {
			d.idx = make(map[string]int, 2*dictScanMax)
			for i, n := range d.names {
				d.idx[n] = i
			}
		}
	}
	x := uint64(len(name))<<1 | 1
	d.extra += SizeUvarint(x) + len(name) - 1
	dst = AppendUvarint(dst, x)
	return append(dst, name...)
}

// backRef appends a back-reference to entry id, one byte below id 64.
func (d *Dict) backRef(dst []byte, id int) []byte {
	x := uint64(id) << 1
	if id >= 0x40 {
		d.extra += SizeUvarint(x) - 1
	}
	return AppendUvarint(dst, x)
}

// DictTable is the decoder half: it accumulates the names a frame defines
// and resolves back-references. Zero value is ready; Reset at every frame
// boundary. Not safe for concurrent use (each receiver owns one).
type DictTable struct {
	names []string
	// known remembers the last few names defined, across frames — every frame
	// of a link defines the same handful — as heap strings of their own, so a
	// definition rarely allocates and never aliases the frame.
	known [8]string
	next  int
	// extra mirrors Dict.extra: the bytes the references read since the last
	// TakeExtra took beyond one each.
	extra int
}

// Reset clears the table for a new frame, reusing the backing slice.
func (t *DictTable) Reset() { t.names, t.extra = t.names[:0], 0 }

// TakeExtra returns the bytes the references read since the last call took
// beyond one each, and starts counting again: on a record, the count
// Dict.TakeExtra gave its sender.
func (t *DictTable) TakeExtra() int {
	n := t.extra
	t.extra = 0
	return n
}

// Len returns the number of names defined so far in this frame.
func (t *DictTable) Len() int { return len(t.names) }

// name returns b as a string that does not alias it.
func (t *DictTable) name(b []byte) string {
	for _, k := range t.known {
		if k == string(b) { // compares in place
			return k
		}
	}
	k := string(b)
	t.known[t.next] = k
	t.next = (t.next + 1) % len(t.known)
	return k
}

// ReadRef reads one name reference written by Dict.AppendRef. A definition
// resolves its name bytes to a string of its own (allocating only for a name
// that is not among the last few seen) and appends it to the table.
func (t *DictTable) ReadRef(b []byte) (string, []byte, error) {
	x, rest, err := ReadUvarint(b)
	if err != nil {
		return "", nil, fmt.Errorf("codec: name ref: %w", err)
	}
	if x&1 == 0 {
		id := x >> 1
		if id >= uint64(len(t.names)) {
			return "", nil, fmt.Errorf("codec: name id %d out of range (dictionary has %d entries)", id, len(t.names))
		}
		t.extra += len(b) - len(rest) - 1
		return t.names[id], rest, nil
	}
	n := x >> 1
	if uint64(len(rest)) < n {
		return "", nil, fmt.Errorf("codec: short name definition (%d of %d bytes)", len(rest), n)
	}
	name := t.name(rest[:n])
	// Past the cap, definitions resolve but are not registered — the exact
	// mirror of Dict.AppendRef, keeping both tables in lockstep and bounded.
	if len(t.names) < maxDictEntries {
		t.names = append(t.names, name)
	}
	t.extra += len(b) - len(rest) + int(n) - 1
	return name, rest[n:], nil
}
