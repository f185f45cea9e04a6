package workload

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/statestore"
)

// commEdges reads a communication matrix back as an edge set.
func commEdges(c *core.CommCSR) map[[2]int]bool {
	m := map[[2]int]bool{}
	c.ForEach(func(from, to int, _ float64) { m[[2]int{from, to}] = true })
	return m
}

func countTuples(gen engine.SourceFunc, period int) (n int, keys map[string]int) {
	keys = map[string]int{}
	gen(period, func(t *engine.Tuple) {
		n++
		keys[t.Key]++
	})
	return n, keys
}

func TestWikipediaGenerator(t *testing.T) {
	gen := Wikipedia(WikipediaConfig{BaseRate: 2000, Seed: 1})
	n0, keys := countTuples(gen, 0)
	if n0 < 1000 || n0 > 4000 {
		t.Fatalf("period 0 rate = %d, want near 2000", n0)
	}
	// Zipf skew: the most popular article must clearly exceed a uniform
	// share (1/20000 of the edits) without dominating the stream.
	max := 0
	for _, c := range keys {
		if c > max {
			max = c
		}
	}
	if max < n0/200 {
		t.Fatalf("no skew: hottest article only %d of %d", max, n0)
	}
	// Rate fluctuates across periods.
	rates := map[int]bool{}
	for p := 1; p <= 10; p++ {
		n, _ := countTuples(gen, p)
		rates[n/100] = true
	}
	if len(rates) < 3 {
		t.Fatal("rate does not fluctuate")
	}
}

func TestWikipediaDeterministicBySeed(t *testing.T) {
	a, _ := countTuples(Wikipedia(WikipediaConfig{BaseRate: 1000, Seed: 7}), 0)
	b, _ := countTuples(Wikipedia(WikipediaConfig{BaseRate: 1000, Seed: 7}), 0)
	if a != b {
		t.Fatalf("same seed produced different rates: %d vs %d", a, b)
	}
}

func TestAirlineGenerator(t *testing.T) {
	gen := Airline(AirlineConfig{Rate: 3000, Seed: 2})
	var n int
	var badRoute, negDelay int
	gen(0, func(tu *engine.Tuple) {
		n++
		r := tu.Str("route")
		if !strings.Contains(r, "-") || tu.Str("origin") == tu.Str("dest") {
			badRoute++
		}
		if tu.Num("delay") < 0 {
			negDelay++
		}
	})
	if n != 3000 {
		t.Fatalf("rate = %d, want 3000", n)
	}
	if badRoute != 0 || negDelay != 0 {
		t.Fatalf("%d bad routes, %d negative delays", badRoute, negDelay)
	}
	// RateScale halves the input (used for COLA in Real Job 3).
	half := Airline(AirlineConfig{Rate: 3000, RateScale: 0.5, Seed: 2})
	hn := 0
	half(0, func(*engine.Tuple) { hn++ })
	if hn != 1500 {
		t.Fatalf("scaled rate = %d, want 1500", hn)
	}
}

func TestWeatherGenerator(t *testing.T) {
	gen := Weather(WeatherConfig{Rate: 500, Seed: 3})
	n, rainy := 0, 0
	gen(0, func(tu *engine.Tuple) {
		n++
		if tu.Num("precip") > 0 {
			rainy++
		}
		if tu.Num("histMax") <= 0 {
			t.Fatal("histMax must be positive")
		}
		if tu.Str("airport") == "" {
			t.Fatal("missing airport")
		}
	})
	if n != 500 {
		t.Fatalf("rate = %d", n)
	}
	if rainy == 0 || rainy == n {
		t.Fatalf("rain distribution degenerate: %d of %d", rainy, n)
	}
}

// runJob executes a few periods and returns the final snapshot.
func runJob(t *testing.T, topo *engine.Topology, nodes, periods int) *core.Snapshot {
	t.Helper()
	e, err := engine.New(topo, engine.Config{Nodes: nodes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for p := 0; p < periods; p++ {
		if _, err := e.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestRealJob1Runs(t *testing.T) {
	topo, err := RealJob1(JobConfig{KeyGroups: 12, Rate: 800, Seed: 1, WindowPeriods: 3})
	if err != nil {
		t.Fatal(err)
	}
	snap := runJob(t, topo, 4, 4)
	if len(snap.Ops) != 3 {
		t.Fatalf("ops = %d", len(snap.Ops))
	}
	// Full partitioning: geohash groups talk to many topk groups.
	fanout := map[int]map[int]bool{}
	for pair := range commEdges(snap.Comm) {
		fromOp := snap.Groups[pair[0]].Op
		toOp := snap.Groups[pair[1]].Op
		if fromOp == 0 && toOp == 1 {
			if fanout[pair[0]] == nil {
				fanout[pair[0]] = map[int]bool{}
			}
			fanout[pair[0]][pair[1]] = true
		}
	}
	many := 0
	for _, targets := range fanout {
		if len(targets) > 3 {
			many++
		}
	}
	if many < 6 {
		t.Fatalf("expected full-partitioning fanout, got %d groups with >3 targets", many)
	}
}

func TestRealJob2OneToOnePattern(t *testing.T) {
	topo, err := RealJob2(JobConfig{KeyGroups: 10, Rate: 600, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap := runJob(t, topo, 4, 3)
	// Every extract group must send to exactly one sumdelay group: its own
	// index (identical key and key-group count).
	for pair := range commEdges(snap.Comm) {
		fromOp := snap.Groups[pair[0]].Op
		toOp := snap.Groups[pair[1]].Op
		if fromOp == 0 && toOp == 1 {
			fromKG := pair[0] - snap.Ops[0].Groups[0]
			toKG := pair[1] - snap.Ops[1].Groups[0]
			if fromKG != toKG {
				t.Fatalf("extract kg %d sent to sumdelay kg %d; want One-To-One", fromKG, toKG)
			}
		}
	}
}

func TestRealJob3RouteStreamNotOneToOne(t *testing.T) {
	topo, err := RealJob3(JobConfig{KeyGroups: 10, Rate: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	snap := runJob(t, topo, 4, 3)
	// extract -> routedelay must fan out (different partitioning key).
	routeOp := -1
	for i, op := range snap.Ops {
		if op.Name == "routedelay" {
			routeOp = i
		}
	}
	fanout := map[int]map[int]bool{}
	for pair := range commEdges(snap.Comm) {
		if snap.Groups[pair[0]].Op == 0 && snap.Groups[pair[1]].Op == routeOp {
			if fanout[pair[0]] == nil {
				fanout[pair[0]] = map[int]bool{}
			}
			fanout[pair[0]][pair[1]] = true
		}
	}
	many := 0
	for _, targets := range fanout {
		if len(targets) > 2 {
			many++
		}
	}
	if many < 5 {
		t.Fatalf("route stream should fan out; %d groups with >2 targets", many)
	}
}

func TestRealJob4Runs(t *testing.T) {
	topo, err := RealJob4(JobConfig{KeyGroups: 8, Rate: 600, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	snap := runJob(t, topo, 4, 3)
	names := map[string]bool{}
	for _, op := range snap.Ops {
		names[op.Name] = true
	}
	for _, want := range []string{"extract", "sumdelay", "routedelay", "rainscore", "join", "courier", "store-delay", "store-courier"} {
		if !names[want] {
			t.Fatalf("missing operator %q", want)
		}
	}
	// The courier pipeline must actually carry data.
	seen := false
	for pair := range commEdges(snap.Comm) {
		if snap.Ops[snap.Groups[pair[1]].Op].Name == "courier" {
			seen = true
		}
	}
	if !seen {
		t.Fatal("no traffic reached the courier operator")
	}
}

// TestTopKOfMatchesFullSort: the bounded selection returns what sorting the
// whole table (total descending, key ascending) and cutting it at k returns —
// with totals drawn from a handful of values so that ties straddle the cut,
// for k below, at and above the cell count, and for k = 0.
func TestTopKOfMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 7, 200} {
		totals := statestore.NewState().Table("totals")
		var all []ranked
		for i := 0; i < n; i++ {
			c := ranked{fmt.Sprintf("article-%06d", rng.Intn(1_000_000)), float64(rng.Intn(5))}
			if _, ok := totals.Lookup(c.key); !ok {
				totals.Set(c.key, c.total)
				all = append(all, c)
			}
		}
		slices.SortFunc(all, func(a, b ranked) int {
			if a.total != b.total {
				return cmp.Compare(b.total, a.total)
			}
			return strings.Compare(a.key, b.key)
		})
		for _, k := range []int{0, 1, 3, 10, len(all), len(all) + 5} {
			want := all[:min(k, len(all))]
			if got := topKOf(totals, k); !slices.Equal(got, want) {
				t.Errorf("%d cells, k=%d: got %v, want %v", len(all), k, got, want)
			}
		}
	}
}
