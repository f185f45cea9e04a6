package codec

import "fmt"

// Wire is one pass over a message's bytes, in either direction, so that a
// message crossing processes is described once: a method that lists the
// message's fields through a Wire encodes it when the Wire is writing (each
// field is appended to B) and decodes it when it is Reading (each field is
// read off the front of B and checked against its bound). Integers are
// uvarints, strings and blobs are length-prefixed, floats are 8 fixed bytes.
//
// The first failure sticks in Err, and every later read is a no-op that
// leaves its field as it was, so a description reads its fields in sequence
// and checks Err only before it indexes anything with what it read. A writer
// never fails.
type Wire struct {
	B       []byte
	Reading bool
	Err     error
}

// Fail records err unless an earlier failure did.
func (w *Wire) Fail(err error) {
	if w.Err == nil {
		w.Err = err
	}
}

// Done ends a read: it fails on bytes left over. It returns the pass's error.
func (w *Wire) Done() error {
	if w.Reading && w.Err == nil && len(w.B) != 0 {
		w.Err = fmt.Errorf("codec: wire: %d trailing bytes", len(w.B))
	}
	return w.Err
}

// uvarint reads one uvarint; ok is false once the pass has failed.
func (w *Wire) uvarint() (uint64, bool) {
	if w.Err != nil {
		return 0, false
	}
	x, rest, err := ReadUvarint(w.B)
	if err != nil {
		w.Err = fmt.Errorf("codec: wire: %w", err)
		return 0, false
	}
	w.B = rest
	return x, true
}

// bounded reads a uvarint of at most max (none when max < 0).
func (w *Wire) bounded(max int) (int, bool) {
	x, ok := w.uvarint()
	if ok && (max < 0 || x > uint64(max)) {
		w.Err = fmt.Errorf("codec: wire: %d out of range [0, %d]", x, max)
		return 0, false
	}
	return int(x), ok
}

// Int carries *v >= 0; a reader takes at most max.
// A one-byte value — nearly every field — is appended inline.
func (w *Wire) Int(v *int, max int) {
	if !w.Reading && uint(*v) < 0x80 {
		w.B = append(w.B, byte(*v))
	} else {
		w.int(v, max)
	}
}

func (w *Wire) int(v *int, max int) {
	if !w.Reading {
		w.B = AppendUvarint(w.B, uint64(*v))
	} else if b := w.B; w.Err == nil && len(b) > 0 && b[0] < 0x80 && int(b[0]) <= max {
		*v, w.B = int(b[0]), b[1:]
	} else if x, ok := w.bounded(max); ok {
		*v = x
	}
}

// Signed carries *v >= -1 as uvarint(*v+1); a reader takes at most max.
func (w *Wire) Signed(v *int, max int) {
	if !w.Reading {
		w.B = AppendUvarint(w.B, uint64(*v+1))
	} else if x, ok := w.bounded(max + 1); ok {
		*v = x - 1
	}
}

// Add carries *v as a uvarint; a reader adds what it reads to *v (a sum
// accumulates across messages; a zero *v reads the value).
func (w *Wire) Add(v *int64) {
	if !w.Reading {
		w.B = AppendUvarint(w.B, uint64(*v))
	} else if x, ok := w.uvarint(); ok {
		*v += int64(x)
	}
}

// Count carries a length: a writer appends n and returns it, a reader returns
// the count it reads, at most max (0 once the pass failed). Elements read
// after it must each consume bytes, so a lying count fails at the end of B.
func (w *Wire) Count(n, max int) int {
	if !w.Reading {
		w.B = AppendUvarint(w.B, uint64(n))
		return n
	}
	n, _ = w.bounded(max)
	return n
}

// Ints carries a slice of at most count ints, each at most max.
func (w *Wire) Ints(v *[]int, count, max int) {
	n := w.Count(len(*v), count)
	for i := 0; i < n && w.Err == nil; i++ {
		w.Int(Elem(w, v, i), max)
	}
}

// Elem returns the element i of *s for a pass over a slice's elements in
// order; a reader first appends a zero element at i == len(*s).
func Elem[S ~[]T, T any](w *Wire, s *S, i int) *T {
	if w.Reading && i == len(*s) {
		var zero T
		*s = append(*s, zero)
	}
	return &(*s)[i]
}

// Byte carries one raw byte.
func (w *Wire) Byte(v *byte) {
	if !w.Reading {
		w.B = append(w.B, *v)
		return
	}
	if w.Err != nil {
		return
	}
	if len(w.B) == 0 {
		w.Err = fmt.Errorf("codec: wire: truncated before a byte")
		return
	}
	*v, w.B = w.B[0], w.B[1:]
}

// Bool carries *v as a byte, 0 or 1; a reader fails on any other.
func (w *Wire) Bool(v *bool) {
	var b byte
	if !w.Reading {
		if *v {
			b = 1
		}
		w.B = append(w.B, b)
	} else if w.Byte(&b); w.Err == nil && b > 1 {
		w.Err = fmt.Errorf("codec: wire: bool byte 0x%02x", b)
	} else if w.Err == nil {
		*v = b == 1
	}
}

// Float64 carries *v as 8 fixed bytes.
func (w *Wire) Float64(v *float64) {
	if !w.Reading {
		w.B = AppendFloat64(w.B, *v)
		return
	}
	if w.Err != nil {
		return
	}
	x, rest, err := ReadFloat64(w.B)
	if err != nil {
		w.Err = fmt.Errorf("codec: wire: %w", err)
		return
	}
	*v, w.B = x, rest
}

// span reads a length of at most max and the bytes it announces.
func (w *Wire) span(max int) ([]byte, bool) {
	n, ok := w.bounded(max)
	if !ok {
		return nil, false
	}
	if len(w.B) < n {
		w.Err = fmt.Errorf("codec: wire: %d of %d bytes", len(w.B), n)
		return nil, false
	}
	b := w.B[:n]
	w.B = w.B[n:]
	return b, true
}

// Blob carries a length-prefixed byte string of at most max bytes. A reader
// copies it into (*v)[:0] — a message outlives the buffer it arrived in — so
// a caller that sets *v to a buffer of its own (a pooled one) reads into it.
func (w *Wire) Blob(v *[]byte, max int) {
	if !w.Reading {
		w.B = AppendUvarint(w.B, uint64(len(*v)))
		w.B = append(w.B, *v...)
	} else if b, ok := w.span(max); ok {
		*v = append((*v)[:0], b...)
	}
}

// String carries a length-prefixed string of at most max bytes.
func (w *Wire) String(v *string, max int) {
	if !w.Reading {
		w.B = AppendString(w.B, *v)
	} else if b, ok := w.span(max); ok {
		*v = string(b)
	}
}
