package workload

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/engine"
)

// collectParts runs one period of a partitionable generator split `parts`
// ways and indexes every emitted tuple by its timestamp (unique within a
// period: ts = period*1e6 + i), fingerprinted by its wire encoding against an
// empty name dictionary — key, timestamp and every field, names in full.
func collectParts(t *testing.T, gen engine.PartSourceFunc, period, parts int) map[int64][]byte {
	t.Helper()
	got := map[int64][]byte{}
	for part := 0; part < parts; part++ {
		gen(period, part, parts, func(tu *engine.Tuple) {
			if _, dup := got[tu.TS]; dup {
				t.Fatalf("parts=%d: timestamp %d emitted twice (overlapping partitions)", parts, tu.TS)
			}
			got[tu.TS] = tu.EncodeV2(nil, &codec.Dict{})
		})
	}
	return got
}

// TestPartsUnionMatchesSequential: for every partitionable dataset
// generator, the union of the parts must be bit-identical to the
// sequential (parts=1) batch for any split — the contract the benchmark's
// generation probe relies on when it measures what generating in parts
// costs. The generators replay the full per-period RNG stream in each part
// and filter, so this holds even for draws with rejection loops (Zipf).
func TestPartsUnionMatchesSequential(t *testing.T) {
	gens := map[string]engine.PartSourceFunc{
		"wikipedia": WikipediaParts(WikipediaConfig{Seed: 7}),
		"airline":   AirlineParts(AirlineConfig{Seed: 7}),
		"weather":   WeatherParts(WeatherConfig{Seed: 7}),
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			for _, period := range []int{0, 3} {
				seq := collectParts(t, gen, period, 1)
				if len(seq) == 0 {
					t.Fatalf("period %d: sequential run emitted nothing", period)
				}
				for _, parts := range []int{2, 3} {
					got := collectParts(t, gen, period, parts)
					if len(got) != len(seq) {
						t.Fatalf("period %d parts=%d: %d tuples, want %d", period, parts, len(got), len(seq))
					}
					for ts, enc := range seq {
						if !bytes.Equal(got[ts], enc) {
							t.Fatalf("period %d parts=%d: tuple ts=%d differs from the sequential stream", period, parts, ts)
						}
					}
				}
			}
		})
	}
}
