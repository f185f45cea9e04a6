package engine

import (
	"fmt"

	"repro/internal/codec"
)

// TupleView is the window operators get onto one tuple of the receive path.
// The batch decoder parses each v2 record into one reusable tuple whose key
// and string values are not copied: they alias the pooled frame the record
// arrived in (codec.Alias), so a key's bytes are read where they lie, by the
// operator and by the state table it probes, and nothing is allocated or
// looked up per tuple.
//
// Ownership rules:
//
//   - A view, and every string read from it (Key, Str), is valid until the
//     Proc callback it was passed to returns; the engine recycles the frame
//     behind them after that.
//   - State and Table copy what they keep: a key, a field name or a SetStr
//     value taken from a view may be stored in the callback's state as is.
//   - Emit has consumed the tuple when it returns: a tuple built from a view's
//     strings (tu.NewTuple(tu.Str("geo"), …)) may be emitted as is.
//   - Materialize owns: it deep-copies the view, strings included, into a
//     heap Tuple for operators that keep tuples past the callback.
//   - Anything else that outlives the callback — a Go map keyed by tu.Key(), a
//     slice of values — takes strings.Clone.
//
// The same rules hold for a view onto an in-memory *Tuple (a shard-local
// delivery that never crossed the wire): its strings may be a frame's too.
type TupleView struct {
	// src is the tuple the accessors read: &rec after decodeV2, else the
	// tuple a shard-local delivery wrapped.
	src *Tuple
	rec Tuple // the reusable record decodeV2 fills
	// pool, when non-nil, serves NewTuple from the receiving shard's local
	// free list (the engine sets it on its reusable views; caller-built
	// views fall back to the global tuple pool).
	pool *tupleFreeList
}

// decodeV2 parses one v2 record (already stripped of its kg prefix) into the
// view's record, reusing its field vectors. Field names resolve through the
// frame's dictionary table; the key and string values alias b.
func (v *TupleView) decodeV2(b []byte, dict *codec.DictTable) error {
	t := &v.rec
	v.src = t
	if t.strs == nil {
		t.strs, t.nums = t.strs0[:0], t.nums0[:0]
	}
	t.strs, t.nums = t.strs[:0], t.nums[:0]

	n, b, err := codec.ReadUvarint(b)
	if err != nil {
		return fmt.Errorf("engine: decode v2 key: %w", err)
	}
	if uint64(len(b)) < n {
		return fmt.Errorf("engine: decode v2 key: short string (%d of %d bytes)", len(b), n)
	}
	t.Key, b = codec.Alias(b[:n]), b[n:]
	if t.TS, b, err = codec.ReadInt64(b); err != nil {
		return fmt.Errorf("engine: decode v2 ts: %w", err)
	}

	if n, b, err = codec.ReadUvarint(b); err != nil {
		return fmt.Errorf("engine: decode v2 strs: %w", err)
	}
	if n > uint64(len(b))/2 { // each field ≥ 1-byte ref + 1-byte value prefix
		return fmt.Errorf("engine: decode v2: %d string fields in %d bytes", n, len(b))
	}
	for i := uint64(0); i < n; i++ {
		var name string
		if name, b, err = dict.ReadRef(b); err != nil {
			return fmt.Errorf("engine: decode v2 strs: %w", err)
		}
		var vl uint64
		if vl, b, err = codec.ReadUvarint(b); err != nil {
			return fmt.Errorf("engine: decode v2 strs: %w", err)
		}
		if uint64(len(b)) < vl {
			return fmt.Errorf("engine: decode v2 strs: short value (%d of %d bytes)", len(b), vl)
		}
		t.strs = append(t.strs, strField{K: name, V: codec.Alias(b[:vl])})
		b = b[vl:]
	}

	if n, b, err = codec.ReadUvarint(b); err != nil {
		return fmt.Errorf("engine: decode v2 nums: %w", err)
	}
	if n > uint64(len(b))/9 { // each field ≥ 1-byte ref + 8-byte float
		return fmt.Errorf("engine: decode v2: %d numeric fields in %d bytes", n, len(b))
	}
	for i := uint64(0); i < n; i++ {
		var name string
		if name, b, err = dict.ReadRef(b); err != nil {
			return fmt.Errorf("engine: decode v2 nums: %w", err)
		}
		var f float64
		if f, b, err = codec.ReadFloat64(b); err != nil {
			return fmt.Errorf("engine: decode v2 nums: %w", err)
		}
		t.nums = append(t.nums, numField{K: name, V: f})
	}
	if len(b) != 0 {
		return fmt.Errorf("engine: decode v2: %d trailing bytes", len(b))
	}
	return nil
}

// NewTuple returns a pooled tuple with its key and timestamp set, for the
// operator to fill and Emit — the allocation-free way to produce output from
// a Proc callback. It draws from the processing shard's local free list, to
// which the engine returns the tuple the moment Emit has routed it; the same
// ownership rules as engine.NewTuple apply (do not retain, re-emit or mutate
// after emitting).
func (v *TupleView) NewTuple(key string, ts int64) *Tuple {
	if v.pool != nil {
		t := v.pool.get()
		t.Key = key
		t.TS = ts
		return t
	}
	return NewTuple(key, ts)
}

// Key returns the tuple's partitioning key (valid until the callback returns).
func (v *TupleView) Key() string { return v.src.Key }

// TS returns the event timestamp.
func (v *TupleView) TS() int64 { return v.src.TS }

// Str returns a string field ("" if absent; valid until the callback returns).
func (v *TupleView) Str(name string) string { return v.src.Str(name) }

// Num returns a numeric field (0 if absent).
func (v *TupleView) Num(name string) float64 { return v.src.Num(name) }

// HasStr reports whether the string field is present.
func (v *TupleView) HasStr(name string) bool { return v.src.HasStr(name) }

// HasNum reports whether the numeric field is present.
func (v *TupleView) HasNum(name string) bool { return v.src.HasNum(name) }

// NumFields returns the number of payload fields (both kinds).
func (v *TupleView) NumFields() int { return v.src.NumFields() }

// Materialize deep-copies the view into dst (drawn from the tuple pool when
// dst is nil) and returns it. The result owns its strings and may be retained
// or emitted freely: the escape hatch for operators that keep tuples past the
// Proc callback, and what the engine parks while a group's state is in flight.
func (v *TupleView) Materialize(dst *Tuple) *Tuple {
	if dst == nil {
		dst = getTuple()
	}
	return cloneTupleInto(dst, v.src)
}
