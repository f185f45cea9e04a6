package statestore

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// randKeySet returns up to n distinct keys under a shared prefix, drawn from an
// alphabet with NUL, bytes ≥ 0x80 and few letters, so that keys end inside the
// 8 bytes the radix reads, tie there, and are prefixes of one another.
func randKeySet(rng *rand.Rand, n int) []string {
	prefixes := []string{"", "k", "article-", "N01234|", "a-common-prefix-longer-than-eight-"}
	alphabet := []byte{0x00, 0x01, 'a', 'b', 'z', 0x7f, 0x80, 0xfe, 0xff}
	prefix := prefixes[rng.Intn(len(prefixes))]
	maxLen := 1 + rng.Intn(14)
	seen := map[string]bool{}
	var keys []string
	for tries := 0; len(keys) < n && tries < 4*n; tries++ {
		b := []byte(prefix)
		for l := rng.Intn(maxLen + 1); l > 0; l-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))])
		}
		if k := string(b); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// TestCanonicalOrderIsStringsCompare: Table.order sorts a table's keys exactly
// as slices.SortFunc by strings.Compare does — over random key sets of 0 to
// 5,000 keys, with empty keys, NUL bytes and bytes ≥ 0x80, common prefixes
// longer than 8 bytes, and keys that are prefixes of others — and so does the
// sort of a delta's cells.
func TestCanonicalOrderIsStringsCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	o := new(keyOrder)
	sizes := []int{0, 1, 2, insertionMax, insertionMax + 1, 5000}
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(100)
		switch {
		case trial < len(sizes):
			n = sizes[trial]
		case trial%10 == 0:
			n = rng.Intn(5001)
		}
		keys := randKeySet(rng, n)
		if trial%3 == 0 && len(keys) > 0 && !slices.Contains(keys, "") {
			keys[rng.Intn(len(keys))] = ""
		}
		want := slices.Clone(keys)
		slices.SortFunc(want, strings.Compare)

		tab := &Table{}
		for i, k := range keys {
			tab.Set(k, float64(i))
		}
		var got []string
		for _, ei := range tab.order(o) {
			got = append(got, tab.keys[ei])
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: %d keys: table order differs from strings.Compare order", trial, len(keys))
		}

		cells := make([]numEntry, len(keys))
		for i, k := range keys {
			cells[i] = numEntry{k, float64(i)}
		}
		sortByKey(o, cells, func(c numEntry) string { return c.k })
		for i, c := range cells {
			if c.k != want[i] || keys[int(c.v)] != c.k {
				t.Fatalf("trial %d: %d cells: cell %d is %q, want %q", trial, len(cells), i, c.k, want[i])
			}
		}
	}
}
