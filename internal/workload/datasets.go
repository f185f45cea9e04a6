// Package workload provides the data generators and jobs used by the
// paper's evaluation (Section 5).
//
// The original experiments use three real datasets — the Parsed Wikipedia
// edit history, the US DOT Airline On-Time data, and NOAA's Global Surface
// Summary of the Day — none of which can ship with this repository. Each is
// replaced by a synthetic generator that preserves the properties the
// respective experiments depend on: key distributions (Zipf article
// popularity, plane/route identities), input-rate fluctuation, and the
// partitioning attributes that create or prevent collocation opportunities.
// EXPERIMENTS.md, "Scale substitutions", catalogues the substitutions.
package workload

import (
	"fmt"
	"math"

	"repro/internal/engine"
)

// nameTable holds formatted identifier strings so the generators do not
// re-format (and re-allocate) the same id for every tuple. Every entry is
// formatted up front, so a table is read-only once built and a source may run
// from any goroutine.
type nameTable struct {
	format string
	names  []string
}

func newNameTable(format string, n int) *nameTable {
	t := &nameTable{format: format, names: make([]string, n)}
	for i := range t.names {
		t.names[i] = fmt.Sprintf(format, i)
	}
	return t
}

func (t *nameTable) name(i int) string {
	if i < 0 || i >= len(t.names) {
		return fmt.Sprintf(t.format, i)
	}
	return t.names[i]
}

// WikipediaConfig tunes the Wikipedia edit-history simulator.
type WikipediaConfig struct {
	// Articles is the size of the article universe (default 20000).
	Articles int
	// BaseRate is the average edits per period (default 4000).
	BaseRate int
	// Fluctuation is the relative amplitude of the rate's slow sine drift
	// plus noise (default 0.25).
	Fluctuation float64
	// ZipfS is the skew of article popularity (default 1.1).
	ZipfS float64
	// ZipfV is the Zipf offset; larger flattens the head (default 10, which
	// puts the hottest article near 2% of the edits — a realistic share for
	// an edit-history window).
	ZipfV float64
	// Seed makes the stream reproducible.
	Seed int64
}

// WikipediaParts returns a partitionable source generating edit tuples:
// key = article id, fields: editor, bytes changed, geohash cell.
//
// The paper's Real Job 1 assumes "a completely even distribution of GeoHash
// values covering Denmark"; the generator assigns each edit a uniform cell
// from a fixed 100-cell grid.
//
// Articles come from newZipfSampler and the other fields from intn
// (sampler.go): tables that return math/rand's Zipf and Intn values from
// the same words, so the stream is the one rand.NewZipf and rng.Intn give
// (TestGeneratorStreamsPinned), with the article draw at about a third of
// math/rand's cost (BenchmarkSamplers).
//
// Every part replays the source's full per-period splitmix64 stream in the
// exact per-tuple draw order (the Zipf sampler's rejection loop consumes a
// variable number of draws, so the draws cannot be skipped) and emits only
// every parts-th tuple: the union over parts is bit-identical to the
// parts=1 batch for any parts. The engine runs one generator (Wikipedia);
// the split is what the benchmark's generation probe measures the cost of.
func WikipediaParts(cfg WikipediaConfig) engine.PartSourceFunc {
	if cfg.Articles <= 0 {
		cfg.Articles = 20000
	}
	if cfg.BaseRate <= 0 {
		cfg.BaseRate = 4000
	}
	if cfg.Fluctuation <= 0 {
		cfg.Fluctuation = 0.25
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.1
	}
	if cfg.ZipfV <= 0 {
		cfg.ZipfV = 10
	}
	articles := newNameTable("article-%06d", cfg.Articles)
	editors := newNameTable("editor-%04d", 5000)
	geos := newNameTable("dk-%02d", 100)
	editorDraw, geoDraw, changedDraw := newIntn(5000), newIntn(100), newIntn(2000)
	return func(period, part, parts int, emit engine.Emit) {
		// Per-period RNG: each period's batch is bit-reproducible from
		// (Seed, period) alone, independent of generation order.
		rng := periodRNG(cfg.Seed, 0x11aa, period)
		zipf := newZipfSampler(rng, cfg.ZipfS, cfg.ZipfV, uint64(cfg.Articles-1))
		drift := 1 + cfg.Fluctuation*math.Sin(float64(period)/7)
		noise := 1 + cfg.Fluctuation*0.4*(rng.Float64()*2-1)
		n := int(float64(cfg.BaseRate) * drift * noise)
		for i := 0; i < n; i++ {
			// All draws happen before the part filter, in the serial path's
			// per-tuple order, so the stream position never depends on parts.
			article := int(zipf.Uint64())
			editor := editorDraw.draw(rng)
			geo := geoDraw.draw(rng)
			changed := 10 + changedDraw.draw(rng)
			if i%parts != part {
				continue
			}
			t := engine.NewTuple(articles.name(article), int64(period*1_000_000+i))
			t.WithStr("editor", editors.name(editor))
			t.WithStr("geo", geos.name(geo))
			t.WithNum("bytes", float64(changed))
			emit(t)
		}
	}
}

// Wikipedia is the single-generator form of WikipediaParts (part 0 of 1 is
// the whole batch).
func Wikipedia(cfg WikipediaConfig) engine.SourceFunc {
	p := WikipediaParts(cfg)
	return func(period int, emit engine.Emit) { p(period, 0, 1, emit) }
}

// AirlineConfig tunes the Airline On-Time simulator.
type AirlineConfig struct {
	// Planes is the tail-number universe (default 2000).
	Planes int
	// Airports is the airport universe; routes are ordered pairs
	// (default 60).
	Airports int
	// Rate is flights per period (default 4000).
	Rate int
	// RateScale multiplies Rate (the paper halves COLA's input in Real
	// Job 3).
	RateScale float64
	// Seed makes the stream reproducible.
	Seed int64
}

// AirlineParts returns a partitionable source generating flight records:
// key = tail number, fields: route, origin, destination, departure delay
// minutes, year. See WikipediaParts for the replay-and-filter split model.
func AirlineParts(cfg AirlineConfig) engine.PartSourceFunc {
	if cfg.Planes <= 0 {
		cfg.Planes = 2000
	}
	if cfg.Airports <= 0 {
		cfg.Airports = 60
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 4000
	}
	if cfg.RateScale <= 0 {
		cfg.RateScale = 1
	}
	planes := newNameTable("N%05d", cfg.Planes)
	airports := newNameTable("A%02d", cfg.Airports)
	routes := make([]string, cfg.Airports*cfg.Airports)
	for o := 0; o < cfg.Airports; o++ {
		for d := 0; d < cfg.Airports; d++ {
			routes[o*cfg.Airports+d] = airports.name(o) + "-" + airports.name(d)
		}
	}
	airportDraw, tailDraw := newIntn(cfg.Airports), newIntn(10)
	return func(period, part, parts int, emit engine.Emit) {
		rng := periodRNG(cfg.Seed, 0x22bb, period)
		// Plane popularity is mildly skewed (fleet workhorses fly more, but
		// no tail number exceeds a fraction of a percent of all flights).
		zipf := newZipfSampler(rng, 1.1, 30, uint64(cfg.Planes-1))
		n := int(float64(cfg.Rate) * cfg.RateScale)
		for i := 0; i < n; i++ {
			plane := int(zipf.Uint64())
			o, d := airportDraw.draw(rng), airportDraw.draw(rng)
			if o == d {
				d = (d + 1) % cfg.Airports
			}
			// Delay distribution: most flights near-on-time, a long tail.
			delay := rng.ExpFloat64() * 12
			if tailDraw.draw(rng) == 0 {
				delay += rng.ExpFloat64() * 45
			}
			if i%parts != part {
				continue
			}
			t := engine.NewTuple(planes.name(plane), int64(period*1_000_000+i))
			t.WithStr("route", routes[o*cfg.Airports+d])
			t.WithStr("origin", airports.name(o))
			t.WithStr("dest", airports.name(d))
			t.WithNum("delay", math.Round(delay))
			t.WithNum("year", float64(2004+period%10))
			emit(t)
		}
	}
}

// Airline is the single-generator form of AirlineParts.
func Airline(cfg AirlineConfig) engine.SourceFunc {
	p := AirlineParts(cfg)
	return func(period int, emit engine.Emit) { p(period, 0, 1, emit) }
}

// WeatherConfig tunes the GSOD weather simulator.
type WeatherConfig struct {
	// Stations is the weather-station universe (default 500).
	Stations int
	// Airports links stations to routes (each airport has one station;
	// default 60, matching AirlineConfig).
	Airports int
	// Rate is observations per period (default 1000).
	Rate int
	// Seed makes the stream reproducible.
	Seed int64
}

// WeatherParts returns a partitionable source generating daily surface
// summaries: key = station id, fields: airport served, precipitation, max
// historical precipitation (for the rainscore of Real Job 4). See
// WikipediaParts for the replay-and-filter split model.
func WeatherParts(cfg WeatherConfig) engine.PartSourceFunc {
	if cfg.Stations <= 0 {
		cfg.Stations = 500
	}
	if cfg.Airports <= 0 {
		cfg.Airports = 60
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 1000
	}
	stations := newNameTable("ST%04d", cfg.Stations)
	airports := newNameTable("A%02d", cfg.Airports)
	stationDraw, rainDraw := newIntn(cfg.Stations), newIntn(3)
	return func(period, part, parts int, emit engine.Emit) {
		rng := periodRNG(cfg.Seed, 0x33cc, period)
		for i := 0; i < cfg.Rate; i++ {
			st := stationDraw.draw(rng)
			precip := 0.0
			if rainDraw.draw(rng) == 0 { // rainy day
				precip = rng.ExpFloat64() * 8
			}
			histMax := 60 + rng.Float64()*40
			if i%parts != part {
				continue
			}
			t := engine.NewTuple(stations.name(st), int64(period*1_000_000+i))
			t.WithStr("airport", airports.name(st%cfg.Airports))
			t.WithNum("precip", precip)
			t.WithNum("histMax", histMax)
			emit(t)
		}
	}
}

// Weather is the single-generator form of WeatherParts.
func Weather(cfg WeatherConfig) engine.SourceFunc {
	p := WeatherParts(cfg)
	return func(period int, emit engine.Emit) { p(period, 0, 1, emit) }
}
