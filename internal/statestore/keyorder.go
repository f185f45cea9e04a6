package statestore

import (
	"cmp"
	"slices"
	"strings"
	"sync"
)

// keyOrder sorts keys in strings.Compare order, the canonical order of every
// encoding the checkpoint log stores. It sorts (word, index) pairs, where a
// key's word is the 8 bytes that follow the keys' common prefix, big-endian and
// zero-padded, so that a smaller word is a smaller key: by a
// least-significant-digit radix sort over only the bytes in which some words
// differ (small sets take an insertion sort instead). Pairs with equal words —
// keys that agree beyond them, or a key that ends inside them beside one with
// zero bytes there — are then ordered by the next 8 bytes and, where those
// agree too, by comparing the keys. The keys of a table share a prefix
// ("article-00…", "N01…|") and differ within a few bytes of it, so that
// comparison is rare.
//
// A keyOrder serves one sort at a time and belongs to whoever is encoding, not
// to what is encoded: an encoder takes one from keyOrders for the state it
// encodes, so that encoding a state only reads it.
type keyOrder struct {
	ids, syms  []int32 // a sort's result; a state's fields (State.liveSyms)
	keys       []string
	pairs, tmp []keyPair
	count      [256]uint32
}

type keyPair struct {
	word uint64
	id   int32
}

var keyOrders = sync.Pool{New: func() any { return new(keyOrder) }}

// insertionMax is the largest set keyOrder sorts by insertion: below it the
// counters a radix pass clears and sums cost more than the comparisons.
const insertionMax = 32

// keyWord returns the 8 bytes of k from p on, big-endian, zero-padded.
func keyWord(k string, p int) uint64 {
	if len(k) >= p+8 {
		k = k[p : p+8]
		return uint64(k[0])<<56 | uint64(k[1])<<48 | uint64(k[2])<<40 | uint64(k[3])<<32 |
			uint64(k[4])<<24 | uint64(k[5])<<16 | uint64(k[6])<<8 | uint64(k[7])
	}
	var w uint64
	for i := p; i < len(k); i++ {
		w = w<<8 | uint64(k[i])
	}
	return w << (8 * (p + 8 - len(k)))
}

// sort returns the indexes of keys in the order of the keys they index, in
// o's buffer (valid until o sorts again).
func (o *keyOrder) sort(keys []string) []int32 {
	n := len(keys)
	ids := slices.Grow(o.ids[:0], n)[:n]
	o.ids = ids
	if n < 2 {
		for i := range ids {
			ids[i] = int32(i)
		}
		return ids
	}
	first := keys[0]
	p := len(first) // the common prefix
	for _, k := range keys[1:] {
		p = min(p, len(k))
		if k[:p] != first[:p] {
			i := 0
			for k[i] == first[i] {
				i++
			}
			p = i
		}
	}
	pairs := slices.Grow(o.pairs[:0], n)[:n]
	o.pairs = pairs
	or, and := uint64(0), ^uint64(0)
	for i, k := range keys {
		w := keyWord(k, p)
		pairs[i] = keyPair{w, int32(i)}
		or, and = or|w, and&w
	}
	if n <= insertionMax {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && pairs[j].word < pairs[j-1].word; j-- {
				pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
			}
		}
	} else {
		pairs = o.radix(pairs, or^and)
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && pairs[j].word == pairs[i].word {
			j++
		}
		if j-i > 1 {
			breakTies(keys, pairs[i:j], p+8)
		}
		i = j
	}
	for i, pr := range pairs {
		ids[i] = pr.id
	}
	return ids
}

// radix sorts pairs by word, a byte at a time over the bytes in which vary has
// a bit set, and returns them in one of o's two pair buffers.
func (o *keyOrder) radix(pairs []keyPair, vary uint64) []keyPair {
	tmp := slices.Grow(o.tmp[:0], len(pairs))[:len(pairs)]
	for d := 0; d < 64; d += 8 {
		if uint8(vary>>d) == 0 {
			continue
		}
		count := &o.count
		clear(count[:])
		for _, pr := range pairs {
			count[uint8(pr.word>>d)]++
		}
		at := uint32(0)
		for b, c := range count {
			count[b] = at
			at += c
		}
		for _, pr := range pairs {
			b := uint8(pr.word >> d)
			tmp[count[b]] = pr
			count[b]++
		}
		pairs, tmp = tmp, pairs
	}
	o.pairs, o.tmp = pairs, tmp
	return pairs
}

// breakTies orders pairs whose keys agree on the 8 bytes before p (padded): by
// the 8 bytes from p on, and where those agree too, by the keys. It overwrites
// the words.
func breakTies(keys []string, run []keyPair, p int) {
	for i := range run {
		run[i].word = keyWord(keys[run[i].id], p)
	}
	slices.SortFunc(run, func(a, b keyPair) int {
		if c := cmp.Compare(a.word, b.word); c != 0 {
			return c
		}
		return strings.Compare(keys[a.id], keys[b.id])
	})
}

// sortByKey sorts s in place by key(e), in the order sort gives.
func sortByKey[E any](o *keyOrder, s []E, key func(E) string) {
	keys := o.keys[:0]
	for _, e := range s {
		keys = append(keys, key(e))
	}
	ids := o.sort(keys)
	clear(keys) // the strings are s's to release
	o.keys = keys[:0]
	// s[i] takes the old s[ids[i]]: follow each cycle of ids once, marking
	// what is placed.
	for i := range s {
		if ids[i] < 0 {
			continue
		}
		first, j := s[i], i
		for {
			k := int(ids[j])
			ids[j] = -1
			if k == i {
				s[j] = first
				break
			}
			s[j], j = s[k], k
		}
	}
}
