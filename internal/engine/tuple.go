// Package engine implements a parallel stream processing engine in the
// style of Apache Storm, as required by the paper's execution model
// (Section 3): jobs are DAGs of operators, each parallelized over key
// groups with independent computation state; worker nodes are goroutines
// exchanging tuples through batch-oriented mailboxes; tuples crossing node
// boundaries are really serialized and deserialized (and the cost
// accounted), while node-local edges are free — which is exactly the saving
// that collocation (ALBIC) exploits. Cross-node deliveries are batched per
// (destination node, operator): senders stage encoded tuples in per-
// destination outboxes and ship one pooled wire-format-v2 frame per batch
// (field names dictionary-encoded per frame), so the frame allocation and
// the mailbox lock amortize over many tuples (see batch.go and mailbox.go;
// the per-sender FIFO invariant the barrier protocol needs is documented
// there). The receive path materializes nothing in steady state: records
// decode into one reusable Tuple per shard whose key and string values are
// the pooled frame's bytes (see ProcFunc for the ownership rules). The engine
// supports direct state migration [27],
// the statistics the controller needs (per-key-group loads, state sizes and
// the out(gi,gj) communication matrix), horizontal scaling, and two-choice
// (PoTC) routing for the baseline comparison.
package engine

import (
	"strings"
	"sync"

	"repro/internal/codec"
)

// strField / numField are single payload fields. The field vectors of a
// Tuple are kept sorted by name, so encoding is deterministic without
// sorting and lookups scan a handful of entries — tuple payloads are small,
// and vectors avoid the two map allocations per tuple that dominated the
// decode hot path.
type strField struct {
	K string
	V string
}

type numField struct {
	K string
	V float64
}

// Tuple is the engine's data unit: ⟨key, value, ts⟩ with the value split
// into string and numeric fields (both opaque to the engine, per the
// paper's data model). Access fields with Str/Num/HasNum and build
// tuples with WithStr/WithNum.
type Tuple struct {
	// Key partitions the downstream operator's input.
	Key string
	// strs and nums carry the payload fields, sorted by name. They start
	// out backed by the inline arrays below, so small tuples (the common
	// case) cost one allocation, not three.
	strs []strField
	nums []numField
	// TS is the event timestamp. The engine processes out of order within a
	// period (Section 3, Processing Order).
	TS int64
	// pooled marks engine-owned emit tuples obtained from NewTuple or
	// (*Tuple).NewTuple: the engine recycles them as soon as Emit has
	// routed them, so the producer must not retain, re-emit or mutate one
	// after emitting it. Tuples built with &Tuple{} stay caller-owned.
	pooled bool
	// home is the shard free list a tuple belongs to for life: set on the
	// list's own tuples and on a shard's decode record, nil for every other.
	// (*Tuple).NewTuple draws from it and recycle returns to it.
	home *tupleFreeList
	// Inline backing for the first two fields of each kind. Tuples are
	// always handled by pointer, so the slices never outlive the struct.
	strs0 [2]strField
	nums0 [2]numField
}

// NewTuple returns a pooled tuple with its key and timestamp set, ready for
// WithStr/WithNum and Emit. Ownership transfers to the engine at Emit: the
// tuple is recycled the moment routing completes, which makes operator
// emissions allocation-free. The caller must not retain, re-emit or mutate
// the tuple after emitting it; a tuple that is never emitted is simply
// garbage collected. Inside a Proc callback prefer the input tuple's
// NewTuple, which draws from the processing shard's local free list.
func NewTuple(key string, ts int64) *Tuple {
	t := getTuple()
	t.pooled = true
	t.Key = key
	t.TS = ts
	return t
}

// NewTuple returns a pooled tuple with its key and timestamp set, for a Proc
// callback to fill and Emit — the allocation-free way to produce output from
// one. It draws from the free list of the shard processing t (a tuple of no
// shard's — built by a source or a Flush, or a clone — falls back to
// engine.NewTuple); the same ownership rules as engine.NewTuple apply.
func (t *Tuple) NewTuple(key string, ts int64) *Tuple {
	if t.home == nil {
		return NewTuple(key, ts)
	}
	n := t.home.get()
	n.Key, n.TS = key, ts
	return n
}

// tuplePool recycles the tuples engine.NewTuple and Clone hand out. Emit
// returns the pooled ones once it has routed them, and the engine its parked
// copies once they have been replayed — by the period barrier at the latest.
// Clones an operator retains are simply garbage collected; the pool is an
// optimization, not an ownership registry.
var tuplePool = sync.Pool{New: func() any { return new(Tuple) }}

func getTuple() *Tuple { return tuplePool.Get().(*Tuple) }

// resetTuple clears a tuple for reuse, dropping the string references its
// fields held so a pool does not pin what they point into (a frame, for a
// tuple built from a decoded tuple's strings). Only the fields in use are
// cleared: what lies beyond them was cleared when it was last in use. home
// stays: the tuple goes back to the same pool every time.
func resetTuple(t *Tuple) {
	t.Key, t.TS, t.pooled = "", 0, false
	if cap(t.strs) > len(t.strs0) {
		t.strs0 = [2]strField{} // the copies append left behind when it grew
	}
	if cap(t.nums) > len(t.nums0) {
		t.nums0 = [2]numField{}
	}
	clear(t.strs)
	clear(t.nums)
	t.strs, t.nums = t.strs[:0], t.nums[:0]
}

func putTuple(t *Tuple) {
	resetTuple(t)
	tuplePool.Put(t)
}

// tupleFreeListMax bounds a shard's free list so a burst of in-flight emit
// tuples cannot pin unbounded memory.
const tupleFreeListMax = 1024

// tupleFreeList is a shard-local LIFO of recycled emit tuples. Unlike the
// global tuplePool it is touched only by the owning shard goroutine, so the
// per-tuple get/put on the emit hot path is two plain slice operations —
// no sync.Pool locking or GC interplay.
type tupleFreeList struct {
	free []*Tuple
}

func (l *tupleFreeList) get() *Tuple {
	if n := len(l.free) - 1; n >= 0 {
		t := l.free[n]
		l.free[n] = nil
		l.free = l.free[:n]
		t.pooled = true
		return t
	}
	return &Tuple{pooled: true, home: l}
}

func (l *tupleFreeList) put(t *Tuple) {
	resetTuple(t)
	if len(l.free) < tupleFreeListMax {
		l.free = append(l.free, t)
	}
}

// recycle returns an engine-owned tuple Emit has routed to the pool it came
// from: its shard's free list, or the global pool. A global tuple on a free
// list would push the list's own past tupleFreeListMax into the garbage while
// the global pool allocated afresh.
func recycle(t *Tuple) {
	if t.home != nil {
		t.home.put(t)
		return
	}
	putTuple(t)
}

// Clone deep-copies the tuple, strings included, into one drawn from the
// tuple pool. The copy owns its strings and may be retained or emitted
// freely: what a tuple that must outlive the call that lent it becomes (kept
// by an operator, or parked by the engine while its key group's state is in
// flight). t's key, string values and field names may alias a frame; the
// copy's are cut from one copy of them all.
func (t *Tuple) Clone() *Tuple {
	dst := getTuple()
	if dst.strs == nil {
		dst.strs = dst.strs0[:0]
	}
	if dst.nums == nil {
		dst.nums = dst.nums0[:0]
	}
	dst.Key, dst.TS = t.Key, t.TS
	dst.strs = append(dst.strs[:0], t.strs...)
	dst.nums = append(dst.nums[:0], t.nums...)

	var sb strings.Builder
	sb.Grow(64) // a tuple of the workloads' in one allocation
	sb.WriteString(dst.Key)
	for _, f := range dst.strs {
		sb.WriteString(f.K)
		sb.WriteString(f.V)
	}
	for _, f := range dst.nums {
		sb.WriteString(f.K)
	}
	all := sb.String()
	rehome := func(s *string) {
		n := len(*s)
		*s, all = all[:n], all[n:]
	}
	rehome(&dst.Key)
	for i := range dst.strs {
		rehome(&dst.strs[i].K)
		rehome(&dst.strs[i].V)
	}
	for i := range dst.nums {
		rehome(&dst.nums[i].K)
	}
	return dst
}

// Str returns a string field ("" if absent).
func (t *Tuple) Str(name string) string {
	for i := range t.strs {
		if t.strs[i].K == name {
			return t.strs[i].V
		}
	}
	return ""
}

// Num returns a numeric field (0 if absent).
func (t *Tuple) Num(name string) float64 {
	for i := range t.nums {
		if t.nums[i].K == name {
			return t.nums[i].V
		}
	}
	return 0
}

// HasNum reports whether the numeric field is present.
func (t *Tuple) HasNum(name string) bool {
	for i := range t.nums {
		if t.nums[i].K == name {
			return true
		}
	}
	return false
}

// WithStr sets a string field, keeping fields sorted by name.
func (t *Tuple) WithStr(name, v string) *Tuple {
	if t.strs == nil {
		t.strs = t.strs0[:0]
	}
	i := 0
	for i < len(t.strs) && t.strs[i].K < name {
		i++
	}
	if i < len(t.strs) && t.strs[i].K == name {
		t.strs[i].V = v
		return t
	}
	t.strs = append(t.strs, strField{})
	copy(t.strs[i+1:], t.strs[i:])
	t.strs[i] = strField{K: name, V: v}
	return t
}

// WithNum sets a numeric field, keeping fields sorted by name.
func (t *Tuple) WithNum(name string, v float64) *Tuple {
	if t.nums == nil {
		t.nums = t.nums0[:0]
	}
	i := 0
	for i < len(t.nums) && t.nums[i].K < name {
		i++
	}
	if i < len(t.nums) && t.nums[i].K == name {
		t.nums[i].V = v
		return t
	}
	t.nums = append(t.nums, numField{})
	copy(t.nums[i+1:], t.nums[i:])
	t.nums[i] = numField{K: name, V: v}
	return t
}

// EncodeV2 serializes the tuple as a wire record (appended to buf): key,
// timestamp, then counts followed by name-sorted pairs, every field name
// written as a reference into d, the frame's incremental name dictionary (see
// codec.Dict). The first record of a frame that carries a name embeds it;
// subsequent records reference it by a 1-byte id — op-local field names are
// highly repetitive, so a frame pays for each name once instead of once per
// record.
func (t *Tuple) EncodeV2(buf []byte, d *codec.Dict) []byte {
	buf = codec.AppendString(buf, t.Key)
	buf = codec.AppendInt64(buf, t.TS)
	buf = codec.AppendUvarint(buf, uint64(len(t.strs)))
	for _, f := range t.strs {
		buf = d.AppendRef(buf, f.K)
		buf = codec.AppendString(buf, f.V)
	}
	buf = codec.AppendUvarint(buf, uint64(len(t.nums)))
	for _, f := range t.nums {
		buf = d.AppendRef(buf, f.K)
		buf = codec.AppendFloat64(buf, f.V)
	}
	return buf
}
