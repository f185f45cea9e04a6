package workload

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/engine"
)

// testSeed is the fixed seed every reproducibility assertion in this file
// (and the package's benchmarks) pins.
const testSeed = 42

// encodePeriod serializes one period's full tuple stream (keys, timestamps
// and all fields, via the deterministic codec) into one byte blob.
func encodePeriod(gen engine.SourceFunc, period int) []byte {
	var out []byte
	gen(period, func(tu *engine.Tuple) {
		out = tu.EncodeV2(out, &codec.Dict{})
	})
	return out
}

// TestGeneratorsBitReproducible: two independently constructed generators
// with the same seed must produce byte-identical streams, and a period
// generated in isolation must be byte-identical to the same period
// generated after its predecessors — the per-period RNG derivation makes
// batches a pure function of (seed, period).
func TestGeneratorsBitReproducible(t *testing.T) {
	builders := map[string]func() engine.SourceFunc{
		"wikipedia": func() engine.SourceFunc {
			return Wikipedia(WikipediaConfig{BaseRate: 500, Seed: testSeed})
		},
		"airline": func() engine.SourceFunc {
			return Airline(AirlineConfig{Rate: 500, Seed: testSeed})
		},
		"weather": func() engine.SourceFunc {
			return Weather(WeatherConfig{Rate: 300, Seed: testSeed})
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			// Sequential run over periods 0..5 with one generator instance.
			a := build()
			var seq [][]byte
			for p := 0; p <= 5; p++ {
				seq = append(seq, encodePeriod(a, p))
			}
			if len(seq[3]) == 0 {
				t.Fatal("period 3 generated no bytes")
			}
			// A fresh instance replaying the same periods must match.
			b := build()
			for p := 0; p <= 5; p++ {
				if got := encodePeriod(b, p); !bytes.Equal(got, seq[p]) {
					t.Fatalf("fresh generator diverged at period %d (%d vs %d bytes)", p, len(got), len(seq[p]))
				}
			}
			// Period 5 in isolation (no prior periods generated) must match
			// period 5 of the sequential run.
			c := build()
			if got := encodePeriod(c, 5); !bytes.Equal(got, seq[5]) {
				t.Fatal("period 5 generated in isolation differs from the sequential run")
			}
			// A different seed must actually change the stream.
			var other engine.SourceFunc
			switch name {
			case "wikipedia":
				other = Wikipedia(WikipediaConfig{BaseRate: 500, Seed: testSeed + 1})
			case "airline":
				other = Airline(AirlineConfig{Rate: 500, Seed: testSeed + 1})
			case "weather":
				other = Weather(WeatherConfig{Rate: 300, Seed: testSeed + 1})
			}
			if bytes.Equal(encodePeriod(other, 3), seq[3]) {
				t.Fatal("different seed produced an identical period")
			}
		})
	}
}

// TestSplitmixDistinctStreams: the per-source salts must decorrelate
// sources sharing a seed.
func TestSplitmixDistinctStreams(t *testing.T) {
	a := periodSeed(testSeed, 0x11aa, 3)
	b := periodSeed(testSeed, 0x22bb, 3)
	c := periodSeed(testSeed, 0x11aa, 4)
	if a == b || a == c || b == c {
		t.Fatalf("period seeds collide: %d %d %d", a, b, c)
	}
}
