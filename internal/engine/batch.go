package engine

import (
	"fmt"

	"repro/internal/codec"
)

// Sender-side batching of cross-node deliveries. Every sender (each node
// goroutine, and the engine goroutine running the sources) keeps one outbox
// per destination node; tuples routed to a remote (destNode, op) are encoded
// into the outbox's pooled frame buffer and shipped as a single dataBatchMsg
// when the batch fills, the destination operator changes, or the sender
// reaches an ordering point (a barrier or control message toward that node).
// This amortizes the frame allocation and the mailbox lock over the batch
// while keeping per-sender FIFO intact: a sender's flush always precedes its
// barrier enqueue.
//
// Frames are wire-format v2 (see codec/frame.go): a leading version byte,
// then length-prefixed records whose field names are dictionary-encoded. The
// sender builds the per-frame name dictionary incrementally as it stages, so
// a frame carries each field name once; record lengths — stage's return
// value — are measured on the exact staged bytes, so sender-side wire-byte
// accounting equals what the receiver measures per decoded record.
const (
	// flushBatchBytes / flushBatchTuples bound how much data a sender may
	// buffer per destination before shipping, so batching adds bounded
	// latency and memory.
	flushBatchBytes  = 32 << 10
	flushBatchTuples = 512
)

// outbox accumulates encoded tuple records bound for one destination node.
// All buffered records belong to a single operator (op); the frame buffer is
// leased from codec.GetBuf and ownership passes to the receiver with the
// dataBatchMsg. dict is the frame's incremental field-name dictionary; it
// resets whenever a new frame starts.
type outbox struct {
	op    int
	count int
	buf   []byte
	dict  codec.Dict
	// local marks an outbox whose destination shard lives on the sender's
	// own node: frames ship identically (FIFO through the mailbox) but are
	// excluded from wire-byte, frame and serialization-cost accounting.
	local bool
}

// begin lazily starts a new v2 frame.
func (o *outbox) begin() {
	if o.buf == nil {
		o.buf = codec.AppendFrameHeader(codec.GetBuf(), codec.FrameV2)
		o.dict.Reset()
	}
}

// stage appends one (kg, tuple) record to the outbox frame and returns the
// record's encoded length in bytes — the cost-model "wire bytes" of the
// tuple, excluding the frame's version byte and per-item length prefix, so
// sender-side accounting matches what the receiver measures per decoded
// record. The record is encoded where it will travel, behind one byte kept
// for its length prefix; only a record of 128 bytes or more is moved, to make
// room for a wider one.
func (o *outbox) stage(kg int, t *Tuple) int {
	o.begin()
	at := len(o.buf)
	b := codec.AppendUvarint(append(o.buf, 0), uint64(kg))
	b = t.EncodeV2(b, &o.dict)
	n := len(b) - at - 1
	if n < 0x80 {
		b[at] = byte(n)
	} else {
		b = append(b, make([]byte, codec.SizeUvarint(uint64(n))-1)...)
		copy(b[len(b)-n:], b[at+1:])
		codec.AppendUvarint(b[:at], uint64(n))
	}
	o.buf = b
	o.count++
	return n
}

// full reports whether the outbox reached a flush threshold.
func (o *outbox) full() bool {
	return o.count >= flushBatchTuples || len(o.buf) >= flushBatchBytes
}

// take detaches the accumulated frame as a ready-to-send message. It returns
// ok=false when nothing is buffered.
func (o *outbox) take(period int) (dataBatchMsg, bool) {
	if o.count == 0 {
		return dataBatchMsg{}, false
	}
	m := dataBatchMsg{op: o.op, period: period, count: o.count, encoded: o.buf, local: o.local}
	o.buf, o.count = nil, 0
	return m, true
}

// rxDecoder is one receiver's reusable decode state: the per-frame dictionary
// table and the record every tuple of a frame decodes into. One per shard;
// never shared across goroutines.
type rxDecoder struct {
	dict codec.DictTable
	rec  Tuple
}

// decodeBatch iterates the records of a dataBatchMsg frame: for each record
// it yields the key group, the decoded tuple and the record's wire length. The
// tuple is rx's reusable record, and its key and string values alias the
// frame: valid until fn returns — fn must Clone what it keeps. Records decode
// allocation-free. A record of a key group at or past kgs, which the frame's
// operator does not have, fails the frame: the frame may have crossed a wire.
func decodeBatch(encoded []byte, rx *rxDecoder, kgs int, fn func(kg int, t *Tuple, wire int)) error {
	_, payload, err := codec.FrameVersion(encoded)
	if err != nil {
		return fmt.Errorf("engine: data frame: %w", err)
	}
	rx.dict.Reset()
	return codec.DecodeBatch(payload, func(item []byte) error {
		kg, rest, err := codec.ReadUvarint(item)
		if err != nil {
			return fmt.Errorf("engine: batch record kg: %w", err)
		}
		if kg >= uint64(kgs) {
			return fmt.Errorf("engine: batch record for key group %d of the operator's %d", kg, kgs)
		}
		if err := rx.rec.decodeV2(rest, &rx.dict); err != nil {
			return err
		}
		fn(int(kg), &rx.rec, len(item))
		return nil
	})
}

// decodeV2 parses one v2 record (already stripped of its kg prefix) into t,
// reusing its field vectors. Field names resolve through the frame's
// dictionary table; the key and string values alias b.
func (t *Tuple) decodeV2(b []byte, dict *codec.DictTable) error {
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
