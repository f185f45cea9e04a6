package engine

import (
	"fmt"

	"repro/internal/codec"
)

// TupleView is the zero-allocation window operators get onto one tuple of
// the receive path. Instead of materializing a *Tuple per record, the batch
// decoder parses each v2 record into one reusable view whose string values
// still live in the pooled frame buffer; accessors resolve them lazily (and
// memoize), so a field the operator never reads costs nothing beyond the
// structural parse, and repeated values resolve through the node's interner
// without allocating.
//
// Ownership rules:
//
//   - A view is valid only for the duration of the Proc callback it is
//     passed to. The engine reuses the view (and recycles the frame buffer
//     backing its raw bytes) as soon as the callback returns.
//   - Strings returned by Key/Str ARE safe to retain: they are interned
//     copies, never aliases of the frame.
//   - To retain the whole tuple past the callback (windows that buffer raw
//     tuples, custom replay queues), call Materialize — it deep-copies the
//     view into a heap Tuple drawn from an internal pool. The engine uses
//     the same escape hatch for tuples it must buffer while a key group's
//     state is still in flight, returning them to the pool once replayed
//     (by the period barrier at the latest).
//
// A view is either raw (backed by frame bytes: key/values resolved lazily)
// or wrapped (backed by an in-memory *Tuple, e.g. a node-local delivery that
// never crossed the wire); operators cannot tell the difference through the
// accessors.
type TupleView struct {
	// src, when non-nil, backs the view with a materialized tuple.
	src *Tuple
	// in resolves raw bytes to interned strings (raw mode).
	in *codec.Interner
	// pool, when non-nil, serves NewTuple from the receiving shard's local
	// free list (the engine sets it on its reusable views; caller-built
	// views fall back to the global tuple pool). It survives wrap/decodeV2
	// resets — the view's shard never changes.
	pool *tupleFreeList

	keyRaw []byte
	key    string
	keyOK  bool
	ts     int64
	strs   []viewStr
	nums   []viewNum
}

// viewStr is one string field of a raw view: the name comes from the frame
// dictionary (already a string), the value stays raw frame bytes until the
// first access resolves (and memoizes) it.
type viewStr struct {
	name string
	raw  []byte
	val  string
	ok   bool
}

// viewNum is one numeric field. The value is fixed-width, so it is decoded
// eagerly during the structural parse — no allocation either way.
type viewNum struct {
	name string
	val  float64
}

// wrap points the view at a materialized tuple (node-local deliveries).
func (v *TupleView) wrap(t *Tuple) {
	v.src = t
	v.in = nil
	v.keyRaw, v.key, v.keyOK = nil, "", false
	v.strs, v.nums = v.strs[:0], v.nums[:0]
}

// decodeV2 parses one v2 record (already stripped of its kg prefix) into
// the view, reusing its field tables. Field names resolve through the
// frame's dictionary table; key and string values stay raw until accessed.
func (v *TupleView) decodeV2(b []byte, dict *codec.DictTable, in *codec.Interner) error {
	v.src = nil
	v.in = in
	v.key, v.keyOK = "", false
	v.strs, v.nums = v.strs[:0], v.nums[:0]

	n, b, err := codec.ReadUvarint(b)
	if err != nil {
		return fmt.Errorf("engine: decode v2 key: %w", err)
	}
	if uint64(len(b)) < n {
		return fmt.Errorf("engine: decode v2 key: short string (%d of %d bytes)", len(b), n)
	}
	v.keyRaw, b = b[:n], b[n:]
	if v.ts, b, err = codec.ReadInt64(b); err != nil {
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
		if name, b, err = dict.ReadRef(b, in); err != nil {
			return fmt.Errorf("engine: decode v2 strs: %w", err)
		}
		var vl uint64
		if vl, b, err = codec.ReadUvarint(b); err != nil {
			return fmt.Errorf("engine: decode v2 strs: %w", err)
		}
		if uint64(len(b)) < vl {
			return fmt.Errorf("engine: decode v2 strs: short value (%d of %d bytes)", len(b), vl)
		}
		v.strs = append(v.strs, viewStr{name: name, raw: b[:vl]})
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
		if name, b, err = dict.ReadRef(b, in); err != nil {
			return fmt.Errorf("engine: decode v2 nums: %w", err)
		}
		var f float64
		if f, b, err = codec.ReadFloat64(b); err != nil {
			return fmt.Errorf("engine: decode v2 nums: %w", err)
		}
		v.nums = append(v.nums, viewNum{name: name, val: f})
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

// Key returns the tuple's partitioning key (interned and memoized in raw
// mode; safe to retain).
func (v *TupleView) Key() string {
	if v.src != nil {
		return v.src.Key
	}
	if !v.keyOK {
		v.key = v.in.Intern(v.keyRaw)
		v.keyOK = true
	}
	return v.key
}

// TS returns the event timestamp.
func (v *TupleView) TS() int64 {
	if v.src != nil {
		return v.src.TS
	}
	return v.ts
}

// Str returns a string field ("" if absent). The returned string is an
// interned copy, never an alias of the frame buffer — safe to retain.
func (v *TupleView) Str(name string) string {
	if v.src != nil {
		return v.src.Str(name)
	}
	for i := range v.strs {
		if v.strs[i].name == name {
			if !v.strs[i].ok {
				v.strs[i].val = v.in.Intern(v.strs[i].raw)
				v.strs[i].ok = true
			}
			return v.strs[i].val
		}
	}
	return ""
}

// Num returns a numeric field (0 if absent). Fully allocation-free.
func (v *TupleView) Num(name string) float64 {
	if v.src != nil {
		return v.src.Num(name)
	}
	for i := range v.nums {
		if v.nums[i].name == name {
			return v.nums[i].val
		}
	}
	return 0
}

// HasStr reports whether the string field is present.
func (v *TupleView) HasStr(name string) bool {
	if v.src != nil {
		return v.src.HasStr(name)
	}
	for i := range v.strs {
		if v.strs[i].name == name {
			return true
		}
	}
	return false
}

// HasNum reports whether the numeric field is present.
func (v *TupleView) HasNum(name string) bool {
	if v.src != nil {
		return v.src.HasNum(name)
	}
	for i := range v.nums {
		if v.nums[i].name == name {
			return true
		}
	}
	return false
}

// NumFields returns the number of payload fields (both kinds).
func (v *TupleView) NumFields() int {
	if v.src != nil {
		return v.src.NumFields()
	}
	return len(v.strs) + len(v.nums)
}

// Materialize deep-copies the view into dst (drawn from the tuple pool when
// dst is nil) and returns it. The result does not alias the frame buffer or
// the view and may be retained or emitted freely — this is the escape hatch
// for operators that keep tuples past the Proc callback. It always copies,
// even for views backed by an in-memory tuple, so the caller owns the result
// outright.
func (v *TupleView) Materialize(dst *Tuple) *Tuple {
	if dst == nil {
		dst = getTuple()
	}
	dst.strs, dst.nums = dst.strs[:0], dst.nums[:0]
	if dst.strs == nil {
		dst.strs = dst.strs0[:0]
	}
	if dst.nums == nil {
		dst.nums = dst.nums0[:0]
	}
	if v.src != nil {
		dst.Key = v.src.Key
		dst.TS = v.src.TS
		dst.strs = append(dst.strs, v.src.strs...)
		dst.nums = append(dst.nums, v.src.nums...)
		return dst
	}
	dst.Key = v.Key()
	dst.TS = v.ts
	for i := range v.strs {
		if !v.strs[i].ok {
			v.strs[i].val = v.in.Intern(v.strs[i].raw)
			v.strs[i].ok = true
		}
		dst.strs = append(dst.strs, strField{K: v.strs[i].name, V: v.strs[i].val})
	}
	for i := range v.nums {
		dst.nums = append(dst.nums, numField{K: v.nums[i].name, V: v.nums[i].val})
	}
	return dst
}
