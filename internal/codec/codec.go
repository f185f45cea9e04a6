// Package codec provides a small deterministic binary encoding used for
// tuples crossing node boundaries and for key-group state during direct
// state migration. Determinism (callers write entries in sorted order) makes
// serialized sizes — and therefore the paper's migration-cost model
// mc_k = α·|σ_k| — reproducible across runs.
//
// The batch framing (AppendBatchItem / DecodeBatch) packs many
// encoded items into one length-prefixed frame so cross-node deliveries
// amortize framing and allocation over N items instead of paying per item;
// GetBuf/PutBuf recycle frame buffers through a sync.Pool.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// ---------------------------------------------------------------------------
// Batch framing with buffer pooling.

// maxPooledBuf caps the capacity of buffers returned to the pool so one
// pathological frame cannot pin memory forever.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// boxPool recycles the *[]byte boxes bufPool requires, so PutBuf does not
// allocate a fresh box (an escaping &b) on every call — with both pools
// warm, GetBuf/PutBuf cycles are allocation-free.
var boxPool = sync.Pool{New: func() any { return new([]byte) }}

// scribble makes PutBuf overwrite what it is given: a string that aliased a
// frame and outlived it then reads as garbage at once, not whenever the pool
// reuses the buffer. ScribbleOnPutBuf turns it on for the rest of the process;
// it is for a test binary's TestMain, before anything runs.
var scribble bool

func ScribbleOnPutBuf() { scribble = true }

// GetBuf returns an empty byte buffer from the pool. Pair with PutBuf once
// every slice derived from the buffer has been consumed or copied.
func GetBuf() []byte {
	box := bufPool.Get().(*[]byte)
	b := (*box)[:0]
	*box = nil
	boxPool.Put(box)
	return b
}

// PutBuf returns a buffer to the pool. The caller must not retain any slice
// or string (Alias) over b afterwards: the next GetBuf may hand the same
// backing array to another encoder.
func PutBuf(b []byte) {
	if scribble {
		for i := range b {
			b[i] = 0xA5
		}
	}
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	b = b[:0]
	box := boxPool.Get().(*[]byte)
	*box = b
	bufPool.Put(box)
}

// AppendBatchItem appends one length-prefixed item to a batch frame under
// construction. A frame is simply the concatenation of its items; an empty
// frame is a valid empty batch.
func AppendBatchItem(dst, item []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(item)))
	return append(dst, item...)
}

// DecodeBatch iterates the items of a frame built by AppendBatchItem,
// calling fn with each item in order. The item slice aliases b:
// callers that outlive the frame buffer (e.g. before PutBuf) must copy what
// they keep. Decoding stops at the first error.
func DecodeBatch(b []byte, fn func(item []byte) error) error {
	for len(b) > 0 {
		n, rest, err := ReadUvarint(b)
		if err != nil {
			return fmt.Errorf("codec: batch item length: %w", err)
		}
		if uint64(len(rest)) < n {
			return fmt.Errorf("codec: short batch item (%d of %d bytes)", len(rest), n)
		}
		if err := fn(rest[:n]); err != nil {
			return err
		}
		b = rest[n:]
	}
	return nil
}

// AppendUvarint appends x.
func AppendUvarint(b []byte, x uint64) []byte {
	return binary.AppendUvarint(b, x)
}

// ReadUvarint reads a uvarint. Lengths, counts and dictionary references are
// below 128 nearly always: that case is one byte, decided inline.
func ReadUvarint(b []byte) (uint64, []byte, error) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), b[1:], nil
	}
	return readUvarintWide(b)
}

func readUvarintWide(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("codec: bad uvarint")
	}
	return x, b[n:], nil
}

// AppendInt64 appends x zig-zag encoded.
func AppendInt64(b []byte, x int64) []byte {
	return binary.AppendVarint(b, x)
}

// ReadInt64 reads a zig-zag varint, a one-byte one (-64..63) inline.
func ReadInt64(b []byte) (int64, []byte, error) {
	if len(b) > 0 && b[0] < 0x80 {
		return int64(b[0]>>1) ^ -int64(b[0]&1), b[1:], nil
	}
	return readInt64Wide(b)
}

func readInt64Wide(b []byte) (int64, []byte, error) {
	x, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("codec: bad varint")
	}
	return x, b[n:], nil
}

// AppendFloat64 appends x as 8 fixed bytes.
func AppendFloat64(b []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
}

// ReadFloat64 reads 8 fixed bytes.
func ReadFloat64(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("codec: short float64")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// ReadString reads a length-prefixed string.
func ReadString(b []byte) (string, []byte, error) {
	n, b, err := ReadUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(b)) < n {
		return "", nil, fmt.Errorf("codec: short string (%d of %d bytes)", len(b), n)
	}
	return string(b[:n]), b[n:], nil
}

// ---------------------------------------------------------------------------
// Size helpers: the exact encoded length of a value, computed without
// building bytes. SizeX(v) == len(AppendX(nil, v)) by construction; the stats
// path measures |σ_k| every period with these instead of re-encoding.

// SizeUvarint returns the encoded length of x.
func SizeUvarint(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// SizeString returns the encoded length of a length-prefixed string.
func SizeString(s string) int {
	return SizeUvarint(uint64(len(s))) + len(s)
}

// FNV-1a hashing for key partitioning (two independent seeds for the
// power-of-two-choices router).

const (
	fnvOffset  = 14695981039346656037
	fnvPrime   = 1099511628211
	fnvOffset2 = 0x9e3779b97f4a7c15
)

// Hash returns a stable 64-bit hash of s.
func Hash(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// Hash2 returns a second, independent stable hash of s.
func Hash2(s string) uint64 {
	h := uint64(fnvOffset2)
	for i := len(s) - 1; i >= 0; i-- {
		h ^= uint64(s[i])
		h *= fnvPrime
		h ^= h >> 29
	}
	return h
}
