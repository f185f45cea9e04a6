package workload

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
)

// The generators draw every key from a Zipf distribution and most fields from
// bounded integers, one of each per tuple or more. math/rand's Zipf pays an
// exp and a log per draw (rejection-inversion, Hörmann and Derflinger) and
// its Intn two integer divisions, enough for the one generator goroutine to
// pace a period. The samplers below return exactly what math/rand's would,
// from the same random words, and leave the rng where math/rand's would: the
// streams stay bit-identical (TestGeneratorStreamsPinned) and only get
// cheaper.

// zipfTableCap bounds the values a Zipf table covers; draws of larger values
// (a tail of a distribution over more than 32,768 values) go to math/rand.
const zipfTableCap = 1 << 15

// zipfTable is the accept-at-once structure of math/rand's rejection-
// inversion Zipf for one (s, v, imax). A draw starts with one word w of
// rng.Int63(), turned into r = w/2⁶³, ur = hxm + r·(hx0−hxm) and x = hinv(ur);
// it returns k = ⌊x+½⌋ at once when k−x ≤ s, and tests or rejects otherwise.
// Over u = ⌊(2⁶³−1−w)/2³²⌋, the words that return k at once form an interval
// that grows with k. span[k] holds that interval shrunk on both sides by a
// margin in x far above the float error of h and hinv at k, so every word
// inside it returns k under math/rand's own arithmetic; a word outside every
// span goes to math/rand with the word replayed.
type zipfTable struct {
	// span[k] is k's interval [lo, hi] of u; an interval narrower than its
	// margins is empty (lo = MaxUint32, hi = span[k-1].hi). The his never
	// decrease, and span[len-1] is a sentinel no u reaches.
	span []struct{ lo, hi uint32 }
	// guide[b] is the smallest k whose hi reaches the first u of bucket b
	// (u >> shift): a draw scans up from there. Every k fits 16 bits (k ≤
	// zipfTableCap), which halves the guide; it is read at a uniformly random
	// place per draw, so its size is what the cache sees.
	guide []uint16
	shift uint
}

// zipfKey names one table in the process-wide cache.
type zipfKey struct {
	s, v float64
	imax uint64
}

var zipfTables sync.Map // zipfKey → func() *zipfTable (a sync.OnceValue)

// noTable holds no span: every draw goes to math/rand's Zipf.
var noTable = &zipfTable{span: []struct{ lo, hi uint32 }{{math.MaxUint32, math.MaxUint32}}, guide: []uint16{0}, shift: 31}

// zipfTableFor returns the table for (s, v, imax), built on first use and
// shared by every generator of the process; noTable where math/rand's Zipf
// is nil (s ≤ 1 or v < 1) or its parameters give no finite table.
func zipfTableFor(s, v float64, imax uint64) *zipfTable {
	key := zipfKey{s, v, imax}
	build, ok := zipfTables.Load(key)
	if !ok {
		build, _ = zipfTables.LoadOrStore(key, sync.OnceValue(func() *zipfTable {
			return newZipfTable(s, v, imax)
		}))
	}
	return build.(func() *zipfTable)()
}

// newZipfTable builds the table of (s, v, imax). Its h, hinv, hxm, hx0−hxm
// and s are math/rand's NewZipf, computed the same way; the margins absorb
// any last-bit difference.
func newZipfTable(q, v float64, imax uint64) *zipfTable {
	if !(q > 1) || !(v >= 1) || math.IsInf(q, 0) || math.IsInf(v, 0) {
		return noTable
	}
	oneminusQ := 1 - q
	oneminusQinv := 1 / oneminusQ
	h := func(x float64) float64 { return math.Exp(oneminusQ*math.Log(v+x)) * oneminusQinv }
	hinv := func(x float64) float64 { return math.Exp(oneminusQinv*math.Log(oneminusQ*x)) - v }
	fmax := float64(imax)
	hxm := h(fmax + 0.5)
	hx0minusHxm := h(0.5) - math.Exp(math.Log(v)*(-q)) - hxm
	s := 1 - hinv(h(1.5)-math.Exp(-q*math.Log(v+1)))
	if !(hx0minusHxm < 0) || math.IsInf(hxm, 0) || math.IsNaN(s) {
		return noTable
	}
	// rel bounds, relative to v+x, the error of hinv as math/rand computes it
	// (each of exp, log and the products off by an ulp or two; the log's
	// argument error is amplified by 1/|1−q|, the exponent's by its size),
	// and of h, of ur and of the word ↔ ur map below, times 2²⁰ for safety.
	rel := 0x1p-33 * (4 + 3*math.Log(v+fmax+1) + 2*math.Abs(oneminusQinv))
	n := uint64(zipfTableCap)
	if imax < n {
		n = imax + 1
	}
	t := &zipfTable{span: make([]struct{ lo, hi uint32 }, n+1)}
	// wordOf maps ur to the real-valued word r·2⁶³ that math/rand turns into
	// it, clamped to the words Float64 accepts (those that round to 1 draw
	// again).
	const lastWord = 1<<63 - 1<<11
	wordOf := func(ur float64) float64 {
		w := (ur - hxm) / hx0minusHxm * (1 << 63)
		return math.Max(0, math.Min(w, lastWord))
	}
	prev := uint32(0)
	for k := uint64(0); k < n; k++ {
		fk := float64(k)
		m := (v + fk + 1) * rel
		xlo := math.Max(fk-s, fk-0.5) + m
		xhi := fk + 0.5 - m
		sp := &t.span[k]
		sp.lo, sp.hi = math.MaxUint32, prev
		if !(xlo < xhi) {
			continue
		}
		// h increases, ur falls with w, so xlo maps to the larger word.
		wlo, whi := math.Ceil(wordOf(h(xhi))), math.Floor(wordOf(h(xlo)))
		if !(wlo <= whi) {
			continue
		}
		// The words are whole numbers below 2⁶³; the span keeps the u in
		// [ulo, uend) whose every word lies in [wlo, whi].
		first, end := uint64(math.MaxInt64-int64(whi)), uint64(math.MaxInt64-int64(wlo))+1
		ulo, uend := (first+1<<32-1)>>32, end>>32
		if ulo >= uend || uend-1 < uint64(prev) {
			continue // too narrow, or out of the order the scan needs
		}
		sp.lo, sp.hi, prev = uint32(ulo), uint32(uend-1), uint32(uend-1)
	}
	t.span[n] = struct{ lo, hi uint32 }{math.MaxUint32, math.MaxUint32}
	// About two buckets per value: a draw scans less than one span past its
	// guide on average.
	bitsN := bits.Len64(2*n - 1)
	t.shift = uint(31 - bitsN)
	t.guide = make([]uint16, 1<<bitsN)
	k := uint16(0)
	for b := range t.guide {
		for t.span[k].hi < uint32(b)<<t.shift {
			k++
		}
		t.guide[b] = k
	}
	return t
}

// lookup returns the value math/rand's Zipf returns at once for the word w,
// or false where it would not (or the table does not say).
func (t *zipfTable) lookup(w int64) (uint64, bool) {
	u := uint32((math.MaxInt64 - w) >> 32)
	k := t.guide[u>>t.shift]
	for t.span[k].hi < u {
		k++
	}
	return uint64(k), t.span[k].lo <= u
}

// zipfSampler draws one period's Zipf values from rng: the table's value
// where it has one, math/rand's Zipf fed the same word otherwise. Its
// Uint64 returns what rand.NewZipf(rng, s, v, imax).Uint64 would and
// consumes the same words of rng.
type zipfSampler struct {
	rng    *rand.Rand
	table  *zipfTable
	replay replaySource
	slow   *rand.Zipf
}

// newZipfSampler draws from rng through the process's table for (s, v,
// imax). Where math/rand's Zipf is nil (s ≤ 1 or v < 1), so is slow, and the
// first draw panics as math/rand's does.
func newZipfSampler(rng *rand.Rand, s, v float64, imax uint64) *zipfSampler {
	z := &zipfSampler{rng: rng, table: zipfTableFor(s, v, imax)}
	z.replay.rng = rng
	z.slow = rand.NewZipf(rand.New(&z.replay), s, v, imax)
	return z
}

func (z *zipfSampler) Uint64() uint64 {
	w := z.rng.Int63()
	if k, ok := z.table.lookup(w); ok {
		return k
	}
	return z.miss(w)
}

// miss hands w to math/rand's Zipf, which draws any further words from rng.
func (z *zipfSampler) miss(w int64) uint64 {
	z.replay.word, z.replay.held = w, true
	return z.slow.Uint64()
}

// replaySource hands math/rand's Zipf the word the table already drew, then
// rng's next words: the fallback sees the stream it would have seen alone.
type replaySource struct {
	rng  *rand.Rand
	word int64
	held bool
}

func (r *replaySource) Int63() int64 {
	if r.held {
		r.held = false
		return r.word
	}
	return r.rng.Int63()
}

func (r *replaySource) Seed(int64) { panic("workload: replaySource is not seedable") }

// intn is rng.Intn(n) for 0 < n < 2³¹ with Int31n's rejection bound
// precomputed and its remainder taken without a division: draw returns what
// rng.Intn(n) would and consumes the same words. A power of two needs no case
// of its own: its bound rejects nothing and the remainder is its mask.
type intn struct {
	n   uint64
	max int32  // the largest Int31 Int31n accepts
	mul uint64 // ⌈2⁶⁴/n⌉ mod 2⁶⁴: v mod n is the high word of (mul·v mod 2⁶⁴)·n for v, n < 2³²
}

func newIntn(n int) intn {
	if n <= 0 || n > math.MaxInt32 {
		panic("workload: intn bound out of range")
	}
	return intn{
		n:   uint64(n),
		max: int32((1 << 31) - 1 - (1<<31)%uint32(n)),
		mul: math.MaxUint64/uint64(n) + 1,
	}
}

func (d *intn) draw(rng *rand.Rand) int {
	v := int32(rng.Int63() >> 32)
	for v > d.max {
		v = int32(rng.Int63() >> 32)
	}
	hi, _ := bits.Mul64(d.mul*uint64(v), d.n)
	return int(hi)
}
