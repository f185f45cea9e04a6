package engine

// commTable is a shard's communication accumulator, at every group count: an
// open-addressed hash table from the packed (from, to) key-group pair to its
// tuple count. The per-tuple hot path (add) is one splitmix hash, a short
// linear probe over a power-of-two bucket array and a float add, with no
// per-tuple allocation and no map-runtime overhead. A read (forEach) walks a
// bucket array sized by the edges the period touched, not by gid²; reset
// keeps the grown capacity, so steady-state periods allocate nothing at all.
type commTable struct {
	keys []uint64  // packed key + 1; 0 marks an empty slot
	vals []float64 // tuple counts (unit increments: exact up to 2^53)
	n    int       // occupied slots
}

const commTableMinBuckets = 256

func packComm(from, to int) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }

func (t *commTable) init(buckets int) {
	if buckets < commTableMinBuckets {
		buckets = commTableMinBuckets
	}
	// Round up to a power of two so the probe mask is a single AND.
	b := 1
	for b < buckets {
		b <<= 1
	}
	t.keys = make([]uint64, b)
	t.vals = make([]float64, b)
	t.n = 0
}

// add counts one tuple flowing from key group `from` to `to`.
func (t *commTable) add(from, to int) {
	t.addRate(packComm(from, to), 1)
}

// addRate adds rate to the packed key's slot, growing at 3/4 load so probe
// chains stay short.
func (t *commTable) addRate(key uint64, rate float64) {
	mask := uint64(len(t.keys) - 1)
	slot := mix64(key) & mask
	stored := key + 1
	for {
		k := t.keys[slot]
		if k == stored {
			t.vals[slot] += rate
			return
		}
		if k == 0 {
			if t.n >= len(t.keys)-len(t.keys)/4 {
				t.grow()
				t.addRate(key, rate)
				return
			}
			t.keys[slot] = stored
			t.vals[slot] = rate
			t.n++
			return
		}
		slot = (slot + 1) & mask
	}
}

func (t *commTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, len(oldKeys)*2)
	t.vals = make([]float64, len(oldVals)*2)
	t.n = 0
	for i, k := range oldKeys {
		if k != 0 {
			t.addRate(k-1, oldVals[i])
		}
	}
}

// forEach visits every occupied slot, in unspecified order.
func (t *commTable) forEach(fn func(from, to int, rate float64)) {
	for i, k := range t.keys {
		if k != 0 {
			key := k - 1
			fn(int(key>>32), int(key&0xffffffff), t.vals[i])
		}
	}
}

// reset empties the table but keeps its capacity.
func (t *commTable) reset() {
	clear(t.keys)
	t.n = 0
}
