package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
)

// zipfConfigs are the parameters the equivalence test holds the table to:
// the generators' two (WikipediaParts at its defaults, AirlineParts), steep
// skews, a v at math/rand's lower limit, and a value range wider than a
// table covers.
var zipfConfigs = []struct {
	s, v float64
	imax uint64
}{
	{1.1, 10, 19999}, {1.1, 30, 1999}, {2, 1, 1000}, {3, 1, 99}, {3, 50, 200000},
	{1.01, 2, 5000}, {1.1, 10, 1 << 40},
}

// intnBounds are the bounds the generators use, powers of two, bounds that
// reject almost half the words, and the largest int32.
var intnBounds = []int{5000, 100, 2000, 60, 10, 3, 500, 1, 64, 1<<30 + 1, 1<<31 - 1, 2}

// TestSamplersMatchMathRand: on two rngs seeded alike, the table-driven Zipf
// and intn return what math/rand's Zipf and Intn return, draw for draw, with
// the generators' other draws (Float64, ExpFloat64) interleaved, and leave
// the rngs at the same position.
func TestSamplersMatchMathRand(t *testing.T) {
	draws := 10_000_000
	if testing.Short() {
		draws = 200_000
	}
	for i, c := range zipfConfigs {
		imax := c.imax
		t.Run(fmt.Sprintf("s=%g,v=%g,imax=%d", c.s, c.v, imax), func(t *testing.T) {
			seed := int64(1000 + i)
			want, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			ref := rand.NewZipf(want, c.s, c.v, imax)
			z := newZipfSampler(got, c.s, c.v, imax)
			if z.table == noTable {
				t.Fatal("no table built")
			}
			bounds := make([]intn, len(intnBounds))
			for j, n := range intnBounds {
				bounds[j] = newIntn(n)
			}
			for d := 0; d < draws; d++ {
				if a, b := ref.Uint64(), z.Uint64(); a != b {
					t.Fatalf("draw %d: Zipf %d, table %d", d, a, b)
				}
				j := d % len(intnBounds)
				if a, b := want.Intn(intnBounds[j]), bounds[j].draw(got); a != b {
					t.Fatalf("draw %d: Intn(%d) %d, intn %d", d, intnBounds[j], a, b)
				}
				switch d % 7 {
				case 0:
					want.Float64()
					got.Float64()
				case 3:
					want.ExpFloat64()
					got.ExpFloat64()
				}
			}
			if a, b := want.Int63(), got.Int63(); a != b {
				t.Fatalf("rngs apart after %d draws", draws)
			}
			t.Logf("fallback share %.4f%%", 100*fallbackShare(z.table, got, 1_000_000))
		})
	}
}

// fallbackShare is the share of Zipf draws from rng that the table leaves
// to math/rand's Zipf.
func fallbackShare(tab *zipfTable, rng *rand.Rand, n int) float64 {
	miss := 0
	for i := 0; i < n; i++ {
		if _, ok := tab.lookup(rng.Int63()); !ok {
			miss++
		}
	}
	return float64(miss) / float64(n)
}

// TestZipfSamplerNilAsMathRand: parameters math/rand refuses (s ≤ 1, v < 1)
// build no table and panic on the first draw, as math/rand's nil Zipf does.
func TestZipfSamplerNilAsMathRand(t *testing.T) {
	for _, c := range []struct{ s, v float64 }{{1, 10}, {0.5, 10}, {1.1, 0.5}} {
		z := newZipfSampler(rand.New(rand.NewSource(1)), c.s, c.v, 100)
		if z.table != noTable || z.slow != nil {
			t.Fatalf("s=%g v=%g: sampler has a table or a Zipf", c.s, c.v)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("s=%g v=%g: draw did not panic", c.s, c.v)
				}
			}()
			z.Uint64()
		}()
	}
}

// TestZipfTableShared: concurrent generators share one table per
// configuration (run with -race: the cache is process-wide).
func TestZipfTableShared(t *testing.T) {
	tabs := make(chan *zipfTable, 8)
	for i := 0; i < cap(tabs); i++ {
		go func() { tabs <- zipfTableFor(1.1, 10, 19999) }()
	}
	first := <-tabs
	for i := 1; i < cap(tabs); i++ {
		if tab := <-tabs; tab != first {
			t.Fatal("two tables built for one configuration")
		}
	}
}

// FuzzZipfTable holds the table-driven Zipf to math/rand's over fuzzed
// (s, v, imax, seed): the same values and the same rng position after them.
func FuzzZipfTable(f *testing.F) {
	f.Add(1.1, 10.0, uint64(19999), int64(1))
	f.Add(1.1, 30.0, uint64(1999), int64(2))
	f.Add(3.0, 1.0, uint64(1<<40), int64(3))
	f.Fuzz(func(t *testing.T, s, v float64, imax uint64, seed int64) {
		// Map the inputs onto the parameters math/rand accepts: s in (1, 9],
		// v in [1, 10⁴], imax below 2⁴⁸.
		s = 1 + 1e-3 + math.Mod(math.Abs(s), 8)
		v = 1 + math.Mod(math.Abs(v), 1e4)
		imax %= 1 << 48
		if math.IsNaN(s) || math.IsNaN(v) {
			t.Skip()
		}
		want, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		ref := rand.NewZipf(want, s, v, imax)
		z := &zipfSampler{rng: got, table: newZipfTable(s, v, imax)}
		z.replay.rng = got
		z.slow = rand.NewZipf(rand.New(&z.replay), s, v, imax)
		if z.table == noTable {
			t.Fatalf("s=%g v=%g imax=%d: no table", s, v, imax)
		}
		for d := 0; d < 2000; d++ {
			if a, b := ref.Uint64(), z.Uint64(); a != b {
				t.Fatalf("s=%g v=%g imax=%d draw %d: Zipf %d, table %d", s, v, imax, d, a, b)
			}
		}
		if want.Int63() != got.Int63() {
			t.Fatalf("s=%g v=%g imax=%d: rngs apart", s, v, imax)
		}
	})
}

var sinkU uint64

// BenchmarkSamplers prints ns per draw of math/rand's Zipf and Intn and of
// the table-driven samplers at the generators' parameters, what building a
// table costs (ns/op) and holds (B/k: bytes per value covered), and ns per
// tuple of each generator at the benchmark's rates.
func BenchmarkSamplers(b *testing.B) {
	for _, c := range zipfConfigs[:2] {
		name := fmt.Sprintf("s=%g,v=%g,imax=%d", c.s, c.v, c.imax)
		b.Run("zipf-mathrand/"+name, func(b *testing.B) {
			z := rand.NewZipf(rand.New(rand.NewSource(1)), c.s, c.v, c.imax)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkU += z.Uint64()
			}
		})
		b.Run("zipf-table/"+name, func(b *testing.B) {
			z := newZipfSampler(rand.New(rand.NewSource(1)), c.s, c.v, c.imax)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkU += z.Uint64()
			}
		})
		b.Run("zipf-build/"+name, func(b *testing.B) {
			var tab *zipfTable
			for i := 0; i < b.N; i++ {
				tab = newZipfTable(c.s, c.v, c.imax)
			}
			bytes := 8*len(tab.span) + 2*len(tab.guide)
			b.ReportMetric(float64(bytes)/float64(len(tab.span)-1), "B/k")
		})
	}
	for _, n := range []int{5000, 60} {
		b.Run(fmt.Sprintf("intn-mathrand/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkU += uint64(rng.Intn(n))
			}
		})
		b.Run(fmt.Sprintf("intn-table/n=%d", n), func(b *testing.B) {
			rng, d := rand.New(rand.NewSource(1)), newIntn(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkU += uint64(d.draw(rng))
			}
		})
	}
	gens := []struct {
		name string
		gen  engine.SourceFunc
	}{
		{"wikipedia", Wikipedia(WikipediaConfig{BaseRate: 20000, Seed: testSeed})},
		{"airline", Airline(AirlineConfig{Rate: 20000, Seed: testSeed})},
		{"weather", Weather(WeatherConfig{Rate: 5000, Seed: testSeed})},
	}
	for _, g := range gens {
		b.Run("gen/"+g.name, func(b *testing.B) {
			g.gen(0, func(*engine.Tuple) {}) // builds the tables outside the timing
			tuples := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.gen(16+i%64, func(*engine.Tuple) { tuples++ })
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tuples), "ns/tuple")
		})
	}
}
