package workload

import (
	"fmt"
	"strconv"

	"repro/internal/engine"
)

// JobConfig sizes the "Real Job" topologies. The paper runs each operator
// with 100 key groups on 20 worker nodes; tests shrink these.
type JobConfig struct {
	// KeyGroups per operator (default 100).
	KeyGroups int
	// WindowPeriods is the rolling window length in statistics periods
	// (default 6, standing in for the paper's 1-minute windows).
	WindowPeriods int
	// Rate is the input tuples per period (defaults per dataset).
	Rate int
	// RateScale multiplies Rate.
	RateScale float64
	// Seed drives the generators.
	Seed int64
	// TwoChoice routes the keyed aggregation edges with the power of two
	// choices (PoTC baseline runs of Real Job 1).
	TwoChoice bool
}

// topK is the result size of RealJob1's TopK operators.
const topK = 10

func (c *JobConfig) defaults() {
	if c.KeyGroups <= 0 {
		c.KeyGroups = 100
	}
	if c.WindowPeriods <= 0 {
		c.WindowPeriods = 6
	}
	if c.RateScale <= 0 {
		c.RateScale = 1
	}
}

// bucketNames caches the window-bucket table names ("w0", "w1", ...) so the
// per-tuple windowAdd does not format a string for every tuple.
var bucketNames = func() [64]string {
	var names [64]string
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
	}
	return names
}()

func bucketName(i int) string {
	if i >= 0 && i < len(bucketNames) {
		return bucketNames[i]
	}
	return fmt.Sprintf("w%d", i)
}

// rainBucketNames caches the rainscore decile bucket names ("b00" … "b100").
var rainBucketNames = func() [11]string {
	var names [11]string
	for i := range names {
		names[i] = fmt.Sprintf("b%02d", i*10)
	}
	return names
}()

func rainBucketName(bucket int) string {
	if i := bucket / 10; i >= 0 && i < len(rainBucketNames) {
		return rainBucketNames[i]
	}
	return fmt.Sprintf("b%02d", bucket)
}

// windowAdd records v for key into the current window bucket.
func windowAdd(st *engine.State, period int, window int, key string, v float64) {
	st.Table(bucketName(period%window)).Add(key, v)
}

// windowTotals sums the last `window` buckets per key into the state's
// scratch table (valid until the next Scratch call) and clears the bucket
// that is about to be reused.
func windowTotals(st *engine.State, period, window int) *engine.Table {
	totals := st.Scratch()
	for b := 0; b < window; b++ {
		totals.AddTable(st.Table(bucketName(b)))
	}
	// Expire the oldest bucket (the one the NEXT period will write into).
	st.ClearTable(bucketName((period + 1) % window))
	return totals
}

// ranked is one cell of a totals table in a top-k selection.
type ranked struct {
	key   string
	total float64
}

// topKOf returns the k cells with the largest totals, deterministically
// (total descending, key ascending on ties). It keeps a bounded insertion-
// sorted selection of k cells instead of sorting the whole table: one pass
// over the cells and no table lookup. A cell that does not make the selection
// (on typical data nearly all of them) costs one comparison of two floats, one
// that does at most k comparisons and moves — O(n·k) worst case, ~O(n) as a
// rule — with a single small allocation.
func topKOf(totals *engine.Table, k int) []ranked {
	if k <= 0 || totals.Len() == 0 {
		return nil
	}
	if k > totals.Len() {
		k = totals.Len()
	}
	sel := make([]ranked, 0, k)
	worse := func(a, b ranked) bool { // a ranks after b
		if a.total != b.total {
			return a.total < b.total
		}
		return a.key > b.key
	}
	for key, total := range totals.All() {
		c := ranked{key, total}
		if len(sel) == k {
			if worse(c, sel[k-1]) {
				continue
			}
			sel = sel[:k-1]
		}
		sel = append(sel, c)
		for i := len(sel) - 1; i > 0 && worse(sel[i-1], sel[i]); i-- {
			sel[i-1], sel[i] = sel[i], sel[i-1]
		}
	}
	return sel
}

// RealJob1 is the Wikipedia job of Section 5.2: GeoHash → per-cell TopK
// (1-minute window) → global TopK. The three partitioning functions are
// independent, so every edge exhibits the Full Partitioning pattern and
// collocation has little to offer (the paper measures ~5%).
func RealJob1(cfg JobConfig) (*engine.Topology, error) {
	cfg.defaults()
	rate := cfg.Rate
	if rate <= 0 {
		rate = 4000
	}
	t := engine.NewTopology()
	t.AddSource("wiki", Wikipedia(WikipediaConfig{
		BaseRate: int(float64(rate) * cfg.RateScale),
		Seed:     cfg.Seed,
	}))

	// Operator 1: compute a GeoHash cell per edit (keyed by article).
	t.AddOperator(&engine.Operator{
		Name:      "geohash",
		KeyGroups: cfg.KeyGroups,
		Cost:      1,
		Proc: func(tu *engine.Tuple, st *engine.State, emit engine.Emit) {
			st.Add("edits", 1)
			out := tu.NewTuple(tu.Str("geo"), tu.TS).
				WithStr("article", tu.Key).
				WithNum("bytes", tu.Num("bytes"))
			emit(out)
		},
	})

	// Operator 2: TopK updated articles per GeoHash cell over a window.
	window := cfg.WindowPeriods
	t.AddOperator(&engine.Operator{
		Name:      "topk",
		KeyGroups: cfg.KeyGroups,
		Cost:      1,
		Proc: func(tu *engine.Tuple, st *engine.State, emit engine.Emit) {
			p := int(st.Add("period", 0)) // current period set by Flush below
			windowAdd(st, p, window, tu.Str("article"), 1)
		},
		Flush: func(kg int, st *engine.State, emit engine.Emit) {
			p := int(st.Num("period"))
			for _, top := range topKOf(windowTotals(st, p, window), topK) {
				emit(engine.NewTuple(top.key, int64(p)).
					WithNum("count", top.total))
			}
			st.Add("period", 1)
		},
	})

	// Operator 3: global TopK — the merge stage. Partial per-cell results
	// are combined per article, so this edge is always canonically keyed:
	// under PoTC the upstream aggregation splits each cell's state over two
	// key groups, which roughly doubles the partial tuples for hot articles
	// and leaves the merge skew unbalanceable by routing (the weakness the
	// paper demonstrates). Merging is priced higher per tuple than plain
	// counting.
	t.AddOperator(&engine.Operator{
		Name:      "globaltopk",
		KeyGroups: cfg.KeyGroups,
		Cost:      4,
		Proc: func(tu *engine.Tuple, st *engine.State, emit engine.Emit) {
			p := int(st.Num("period"))
			windowAdd(st, p, window, tu.Key, tu.Num("count"))
		},
		Flush: func(kg int, st *engine.State, emit engine.Emit) {
			p := int(st.Num("period"))
			totals := windowTotals(st, p, window)
			_ = topKOf(totals, topK) // final selection; job is a sink here
			st.Add("period", 1)
		},
	})

	t.Connect("wiki", "geohash")
	if cfg.TwoChoice {
		t.ConnectTwoChoice("geohash", "topk")
	} else {
		t.Connect("geohash", "topk")
	}
	t.Connect("topk", "globaltopk") // merge is canonically keyed either way
	return t, t.Build()
}

// RealJob2 is the airline job of Section 5.4: ExtractDelay → SumDelay by
// plane and year. Both operators partition on the same attribute (the tail
// number), forming a One-To-One pattern with a perfect collocation
// available.
func RealJob2(cfg JobConfig) (*engine.Topology, error) {
	cfg.defaults()
	t := engine.NewTopology()
	addAirlineSourceAndExtract(t, cfg)
	addSumDelay(t, cfg)
	t.Connect("extract", "sumdelay")
	return t, t.Build()
}

// RealJob3 extends Real Job 2 with SumDelayByRoute, partitioned on the
// route attribute — that stream cannot be collocated with the plane-keyed
// operators, halving the obtainable collocation factor.
func RealJob3(cfg JobConfig) (*engine.Topology, error) {
	cfg.defaults()
	t := engine.NewTopology()
	addAirlineSourceAndExtract(t, cfg)
	addSumDelay(t, cfg)
	addRouteDelay(t, cfg)
	t.Connect("extract", "sumdelay")
	t.ConnectBy("extract", "routedelay", func(tu *engine.Tuple) string { return tu.Str("route") })
	return t, t.Build()
}

// RealJob4 extends Real Job 3 with the weather pipeline: RainScore per
// station, a rainscore-route join, courier efficiency bucketed by rainscore
// decile, and store operators writing results out.
func RealJob4(cfg JobConfig) (*engine.Topology, error) {
	cfg.defaults()
	t := engine.NewTopology()
	addAirlineSourceAndExtract(t, cfg)
	addSumDelay(t, cfg)
	addRouteDelay(t, cfg)

	weatherRate := cfg.Rate / 4
	t.AddSource("weather", Weather(WeatherConfig{Rate: weatherRate, Seed: cfg.Seed + 9}))

	// RainScore: percentage of precipitation against the historical max.
	t.AddOperator(&engine.Operator{
		Name:      "rainscore",
		KeyGroups: cfg.KeyGroups,
		Cost:      1,
		Proc: func(tu *engine.Tuple, st *engine.State, emit engine.Emit) {
			score := 0.0
			if tu.Num("histMax") > 0 {
				score = 100 * tu.Num("precip") / tu.Num("histMax")
				if score > 100 {
					score = 100
				}
			}
			emit(tu.NewTuple(tu.Str("airport"), tu.TS).
				WithNum("rainscore", score))
		},
	})

	// Join: per origin airport, join route delays with the latest
	// rainscore, pre-aggregating delay sums per rainscore bucket and
	// flushing one tuple per bucket per period (without pre-aggregation a
	// single dry-weather bucket would concentrate most of the stream on one
	// indivisible key group).
	t.AddOperator(&engine.Operator{
		Name:      "join",
		KeyGroups: cfg.KeyGroups,
		Cost:      1,
		Proc: func(tu *engine.Tuple, st *engine.State, emit engine.Emit) {
			if tu.HasNum("rainscore") {
				st.Table("score").Set(tu.Key, tu.Num("rainscore"))
				return
			}
			score := st.Table("score").Get(tu.Str("origin"))
			bucket := int(score) / 10 * 10
			st.Table("bucketSum").Add(rainBucketName(bucket), tu.Num("delay"))
		},
		Flush: func(kg int, st *engine.State, emit engine.Emit) {
			for bucket, sum := range st.Table("bucketSum").All() {
				emit(engine.NewTuple(bucket, 0).WithNum("delay", sum))
			}
			st.ClearTable("bucketSum")
		},
	})

	// Courier efficiency: sum of delays per rainscore interval of ten.
	t.AddOperator(&engine.Operator{
		Name:      "courier",
		KeyGroups: cfg.KeyGroups / 2,
		Cost:      1,
		Proc: func(tu *engine.Tuple, st *engine.State, emit engine.Emit) {
			st.Table("eff").Add(tu.Key, tu.Num("delay"))
		},
		Flush: func(kg int, st *engine.State, emit engine.Emit) {
			for bucket, sum := range st.Table("eff").All() {
				emit(engine.NewTuple(bucket, 0).WithNum("sum", sum))
			}
		},
	})

	// Store operators: periodic writes to a local database (modeled cost).
	store := func(name string) *engine.Operator {
		return &engine.Operator{
			Name:      name,
			KeyGroups: cfg.KeyGroups / 2,
			Cost:      0.5,
			Proc: func(tu *engine.Tuple, st *engine.State, emit engine.Emit) {
				st.Add("rows", 1)
			},
		}
	}
	t.AddOperator(store("store-delay"))
	t.AddOperator(store("store-courier"))

	t.Connect("extract", "sumdelay")
	t.ConnectBy("extract", "routedelay", func(tu *engine.Tuple) string { return tu.Str("route") })
	t.Connect("weather", "rainscore")
	t.Connect("rainscore", "join")
	t.ConnectBy("extract", "join", func(tu *engine.Tuple) string { return tu.Str("origin") })
	t.Connect("join", "courier")
	t.Connect("sumdelay", "store-delay")
	t.Connect("courier", "store-courier")
	return t, t.Build()
}

func addAirlineSourceAndExtract(t *engine.Topology, cfg JobConfig) {
	rate := cfg.Rate
	if rate <= 0 {
		rate = 4000
	}
	t.AddSource("flights", Airline(AirlineConfig{
		Rate:      rate,
		RateScale: cfg.RateScale,
		Seed:      cfg.Seed,
	}))
	// ExtractDelay: light parsing, forwards the delay keyed by plane.
	t.AddOperator(&engine.Operator{
		Name:      "extract",
		KeyGroups: cfg.KeyGroups,
		Cost:      0.3,
		Proc: func(tu *engine.Tuple, st *engine.State, emit engine.Emit) {
			out := tu.NewTuple(tu.Key, tu.TS).
				WithStr("route", tu.Str("route")).
				WithStr("origin", tu.Str("origin")).
				WithNum("delay", tu.Num("delay")).
				WithNum("year", tu.Num("year"))
			emit(out)
		},
	})
	t.Connect("flights", "extract")
}

func addSumDelay(t *engine.Topology, cfg JobConfig) {
	// SumDelay by plane and year: keyed identically to extract, so kg i of
	// extract feeds exactly kg i of sumdelay (One-To-One). The flush emits
	// the sums updated this period (consumed by the store operator in Real
	// Job 4; dropped when nothing is connected).
	t.AddOperator(&engine.Operator{
		Name:      "sumdelay",
		KeyGroups: cfg.KeyGroups,
		Cost:      0.3,
		Proc: func(tu *engine.Tuple, st *engine.State, emit engine.Emit) {
			// "plane|year", built on the stack: the table copies a key only when
			// it inserts it.
			var buf [48]byte
			key := strconv.AppendInt(append(append(buf[:0], tu.Key...), '|'), int64(tu.Num("year")), 10)
			st.Table("byYear").AddBytes(key, tu.Num("delay"))
			st.Table("dirty").Add(tu.Key, 1)
		},
		Flush: func(kg int, st *engine.State, emit engine.Emit) {
			dirty := st.Table("dirty")
			for plane, updates := range dirty.All() {
				emit(engine.NewTuple(plane, 0).WithNum("updates", updates))
			}
			st.ClearTable("dirty")
		},
	})
}

func addRouteDelay(t *engine.Topology, cfg JobConfig) {
	// SumDelayByRoute: keyed by the route attribute.
	t.AddOperator(&engine.Operator{
		Name:      "routedelay",
		KeyGroups: cfg.KeyGroups,
		Cost:      0.3,
		Proc: func(tu *engine.Tuple, st *engine.State, emit engine.Emit) {
			st.Table("byRoute").Add(tu.Key, tu.Num("delay"))
		},
	})
}
