package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/engine"
)

// pinnedStreams are the SHA-256 digests of each generator's encodePeriod
// bytes over periods 0–5 at testSeed and the benchmark's rates (rj1's and
// rj3's source at 20,000 tuples per period, rj4's weather source at a
// quarter of that), recorded with math/rand's own Zipf and Intn before the
// table-driven samplers replaced them in the generators. A sampler that
// changes any draw, or the rng's position after one, changes a digest.
var pinnedStreams = []struct {
	name   string
	gen    engine.SourceFunc
	digest string
}{
	{"wikipedia", Wikipedia(WikipediaConfig{BaseRate: 20000, Seed: testSeed}), "705f8a2ca30476c08d1c9af5fa78dc6cb3364a32d865377f7b7aa52c505e7435"},
	{"airline", Airline(AirlineConfig{Rate: 20000, Seed: testSeed}), "9050c94be5a68603019f52d561cbe0c0a2aa5342b8084deeb34beab9498004fe"},
	{"weather", Weather(WeatherConfig{Rate: 5000, Seed: testSeed}), "5bd8bfbb77775918d0c5a5d6364c35556f60af24242a915a6b3cf98d163425bd"},
}

// TestGeneratorStreamsPinned holds every generator's stream to the bytes it
// had under math/rand's samplers.
func TestGeneratorStreamsPinned(t *testing.T) {
	for _, p := range pinnedStreams {
		h := sha256.New()
		for period := 0; period <= 5; period++ {
			h.Write(encodePeriod(p.gen, period))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != p.digest {
			t.Errorf("%s: stream digest %s, pinned %s", p.name, got, p.digest)
		}
	}
}
