package engine

import (
	"fmt"
	"sync"
	"testing"
)

// TestOutOfOrderProcessing: tuples arrive interleaved from many upstream
// instances in nondeterministic order; a commutative windowed aggregation
// must still produce exact per-period results (the paper's out-of-order
// processing assumption, Section 3).
func TestOutOfOrderProcessing(t *testing.T) {
	var mu sync.Mutex
	perPeriod := map[int]float64{}

	tp := NewTopology()
	tp.AddSource("src", func(period int, emit Emit) {
		// Emit with deliberately shuffled timestamps.
		for i := 200 - 1; i >= 0; i-- {
			emit((&Tuple{Key: fmt.Sprintf("k%d", i%40), TS: int64((i * 7919) % 200)}).
				WithNum("v", 1))
		}
	})
	// A fan-out stage so the aggregator sees interleavings from 4 upstream
	// instances.
	tp.AddOperator(&Operator{
		Name:      "scatter",
		KeyGroups: 8,
		Proc:      func(tu *Tuple, st *State, emit Emit) { emit(tu) },
	})
	tp.AddOperator(&Operator{
		Name:      "window",
		KeyGroups: 8,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			st.Add("sum", tu.Num("v"))
		},
		Flush: func(kg int, st *State, emit Emit) {
			emit((&Tuple{Key: "out"}).WithNum("sum", st.Num("sum")))
			st.Add("sum", -st.Num("sum"))
		},
	})
	tp.AddOperator(&Operator{
		Name:      "collect",
		KeyGroups: 2,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			mu.Lock()
			perPeriod[int(st.Add("seen", 0))] += tu.Num("sum") // period index unknown; sum all
			mu.Unlock()
		},
	})
	tp.Connect("src", "scatter")
	tp.Connect("scatter", "window")
	tp.Connect("window", "collect")
	e, err := New(tp, Config{Nodes: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for p := 0; p < 3; p++ {
		if _, err := e.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	total := 0.0
	for _, v := range perPeriod {
		total += v
	}
	mu.Unlock()
	if total != 600 {
		t.Fatalf("windowed total = %v, want 600 (200/period x 3)", total)
	}
}

// TestConnectByKeying: the same stream partitioned by a payload attribute
// must land on the key group of that attribute, not of the tuple key.
func TestConnectByKeying(t *testing.T) {
	tp := NewTopology()
	tp.AddSource("src", func(period int, emit Emit) {
		for i := 0; i < 120; i++ {
			tu := &Tuple{Key: fmt.Sprintf("plane-%d", i), TS: int64(i)}
			tu.WithStr("route", fmt.Sprintf("R%d", i%6))
			emit(tu)
		}
	})
	tp.AddOperator(&Operator{
		Name:      "fwd",
		KeyGroups: 4,
		Proc:      func(tu *Tuple, st *State, emit Emit) { emit(tu) },
	})
	tp.AddOperator(&Operator{
		Name:      "byroute",
		KeyGroups: 12,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			// Record which key group each route value landed on; kg is not
			// directly visible here so stash it via state key below.
			st.Table("routes").Add(tu.Str("route"), 1)
		},
	})
	tp.Connect("src", "fwd")
	tp.ConnectBy("fwd", "byroute", func(tu *Tuple) string { return tu.Str("route") })
	e, err := New(tp, Config{Nodes: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	// Inspect states: each loaded byroute key group must hold routes that
	// hash to it, and every route's tuples must be on exactly one kg.
	routeKG := map[string]int{}
	for _, n := range e.nodes {
		for gid, st := range n.allStates() {
			op, kg := e.topo.OpOf(gid)
			if e.topo.ops[op].Name != "byroute" {
				continue
			}
			for route := range st.Table("routes").All() {
				if prev, ok := routeKG[route]; ok && prev != kg {
					t.Fatalf("route %s split across kgs %d and %d", route, prev, kg)
				}
				routeKG[route] = kg
			}
		}
	}
	if len(routeKG) != 6 {
		t.Fatalf("saw %d routes, want 6", len(routeKG))
	}
}

// TestTwoChoiceAggregationCorrect: splitting keys across two candidate key
// groups must not lose or duplicate any contribution; the merged total
// equals the single-choice total.
func TestTwoChoiceAggregationCorrect(t *testing.T) {
	run := func(twoChoice bool) float64 {
		tp := NewTopology()
		tp.AddSource("src", func(period int, emit Emit) {
			for i := 0; i < 500; i++ {
				emit((&Tuple{Key: fmt.Sprintf("k%d", i%17), TS: int64(i)}).WithNum("v", 2))
			}
		})
		tp.AddOperator(&Operator{
			Name:      "pre",
			KeyGroups: 4,
			Proc:      func(tu *Tuple, st *State, emit Emit) { emit(tu) },
		})
		tp.AddOperator(&Operator{
			Name:      "agg",
			KeyGroups: 16,
			Proc: func(tu *Tuple, st *State, emit Emit) {
				st.Add("total", tu.Num("v"))
			},
		})
		tp.Connect("src", "pre")
		if twoChoice {
			tp.ConnectTwoChoice("pre", "agg")
		} else {
			tp.Connect("pre", "agg")
		}
		e, err := New(tp, Config{Nodes: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for p := 0; p < 2; p++ {
			if _, err := e.RunPeriod(); err != nil {
				t.Fatal(err)
			}
		}
		total := 0.0
		for _, n := range e.nodes {
			for gid, st := range n.allStates() {
				if op, _ := e.topo.OpOf(gid); e.topo.ops[op].Name == "agg" {
					total += st.Num("total")
				}
			}
		}
		return total
	}
	single := run(false)
	double := run(true)
	if single != 2000 || double != 2000 {
		t.Fatalf("totals: single-choice %v, two-choice %v, want 2000", single, double)
	}
}

// TestMigrationDuringActivePeriodBuffers: a group migrated while its
// new-period tuples are already flowing must buffer and replay them (direct
// state migration's destination buffering).
func TestMigrationDuringActivePeriodBuffers(t *testing.T) {
	tp := tallyTopology(400, 4)
	e, err := New(tp, Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	// Move ALL groups every period for 5 periods: every period's data for
	// the moved groups races their state transfer.
	for p := 0; p < 5; p++ {
		alloc := e.Allocation()
		for g := range alloc {
			alloc[g] = 1 - alloc[g]
		}
		if err := e.ApplyPlan(alloc); err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	if got := totalTallied(e); got != 2400 {
		t.Fatalf("total = %v, want 2400 (400 x 6 periods, nothing lost in-flight)", got)
	}
}

// TestHeterogeneousCapacity: with capacity weights [1, 3], a balanced
// allocation puts ~3x the cost units on the big node; the snapshot exposes
// the weights so the MILP layer can do exactly that.
func TestHeterogeneousCapacity(t *testing.T) {
	tp := tallyTopology(600, 12)
	e, err := New(tp, Config{Nodes: 2, CapacityWeights: []float64{1, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Capacity == nil || snap.Capacity[1] != 3 {
		t.Fatalf("snapshot capacity = %v, want [1 3]", snap.Capacity)
	}
	// NodeLoadPercents divides by the weight: with a round-robin start both
	// nodes hold similar units, so the big node's percentage is ~1/3.
	pct := e.NodeLoadPercents()
	if pct[1] >= pct[0] {
		t.Fatalf("weighted load percents = %v; big node must report lower utilization", pct)
	}

	// Validation of bad weights.
	if _, err := New(tp, Config{Nodes: 2, CapacityWeights: []float64{1}}, nil); err == nil {
		t.Fatal("want error for weight count mismatch")
	}
	if _, err := New(tp, Config{Nodes: 2, CapacityWeights: []float64{1, 0}}, nil); err == nil {
		t.Fatal("want error for non-positive weight")
	}
	if _, err := New(tp, Config{Nodes: 2, ShardsPerNode: 257}, nil); err == nil {
		t.Fatal("want error for more than 256 shards per node")
	}
}

// TestHeterogeneousBalancingEndToEnd drives the MILP over a weighted
// cluster: the 3x node must end up holding roughly 3x the load units.
func TestHeterogeneousBalancingEndToEnd(t *testing.T) {
	tp := tallyTopology(900, 16)
	e, err := New(tp, Config{Nodes: 2, CapacityWeights: []float64{1, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for p := 0; p < 8; p++ {
		if _, err := e.RunPeriod(); err != nil {
			t.Fatal(err)
		}
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap.MaxMigrations = 4
		// Inline MILP plan via the assign layer to avoid an import cycle:
		// core is imported by engine already (for core.Snapshot), so use the
		// snapshot's Problem directly.
		prob := snap.Problem()
		sol, err := solveForTest(prob)
		if err != nil {
			t.Fatal(err)
		}
		alloc := make([]int, len(snap.Groups))
		for idx, node := range sol {
			alloc[idx] = node
		}
		if err := e.ApplyPlan(alloc); err != nil {
			t.Fatal(err)
		}
	}
	units := e.last.NodeUnits
	ratio := units[1] / units[0]
	if ratio < 1.8 || ratio > 4.5 {
		t.Fatalf("big node holds %.1fx the units, want ~3x (units %v)", ratio, units)
	}
}
