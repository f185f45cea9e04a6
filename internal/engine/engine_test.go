package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/statestore"
)

// collector gathers sink outputs thread-safely (sinks run on node
// goroutines).
type collector struct {
	mu   sync.Mutex
	nums map[string]float64
	n    int
}

func newCollector() *collector { return &collector{nums: map[string]float64{}} }

func (c *collector) add(key string, v float64) {
	c.mu.Lock()
	c.nums[strings.Clone(key)] += v // key is the input's: it dies with the callback
	c.n++
	c.mu.Unlock()
}

func (c *collector) get(key string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nums[key]
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// wordCountTopology: source emits (word, 1) tuples; "count" accumulates per
// word into per-key-group state; "sink" collects the flushed totals.
func wordCountTopology(words []string, perPeriod int, kgs int, col *collector) *Topology {
	t := NewTopology()
	t.AddSource("src", func(period int, emit Emit) {
		for i := 0; i < perPeriod; i++ {
			w := words[i%len(words)]
			emit(&Tuple{Key: w, TS: int64(period*perPeriod + i)})
		}
	})
	t.AddOperator(&Operator{
		Name:      "count",
		KeyGroups: kgs,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			st.Table("counts").Add(tu.Key, 1)
		},
		Flush: func(kg int, st *State, emit Emit) {
			for w, c := range st.Table("counts").All() {
				emit((&Tuple{Key: w}).WithNum("count", c))
			}
			st.ClearTable("counts")
		},
	})
	// The sink's key-group count is deliberately coprime-ish with the
	// count operator's so that the two hash partitionings do not line up
	// node-for-node by accident.
	sinkKGs := kgs - 3
	if sinkKGs < 1 {
		sinkKGs = kgs + 3
	}
	t.AddOperator(&Operator{
		Name:      "sink",
		KeyGroups: sinkKGs,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			col.add(tu.Key, tu.Num("count"))
		},
	})
	t.Connect("src", "count")
	t.Connect("count", "sink")
	return t
}

func TestTopologyValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Topology
	}{
		{"no sources", func() *Topology {
			tp := NewTopology()
			tp.AddOperator(&Operator{Name: "a", KeyGroups: 1, Proc: func(*Tuple, *State, Emit) {}})
			return tp
		}},
		{"no operators", func() *Topology {
			return NewTopology().AddSource("s", func(int, Emit) {})
		}},
		{"duplicate op", func() *Topology {
			tp := NewTopology().AddSource("s", func(int, Emit) {})
			tp.AddOperator(&Operator{Name: "a", KeyGroups: 1, Proc: func(*Tuple, *State, Emit) {}})
			tp.AddOperator(&Operator{Name: "a", KeyGroups: 1, Proc: func(*Tuple, *State, Emit) {}})
			return tp
		}},
		{"unknown connect", func() *Topology {
			tp := NewTopology().AddSource("s", func(int, Emit) {})
			tp.AddOperator(&Operator{Name: "a", KeyGroups: 1, Proc: func(*Tuple, *State, Emit) {}})
			tp.Connect("s", "nope")
			return tp
		}},
		{"cycle", func() *Topology {
			tp := NewTopology().AddSource("s", func(int, Emit) {})
			tp.AddOperator(&Operator{Name: "a", KeyGroups: 1, Proc: func(*Tuple, *State, Emit) {}})
			tp.AddOperator(&Operator{Name: "b", KeyGroups: 1, Proc: func(*Tuple, *State, Emit) {}})
			tp.Connect("a", "b")
			tp.Connect("b", "a")
			return tp
		}},
		{"two-choice from source", func() *Topology {
			tp := NewTopology().AddSource("s", func(int, Emit) {})
			tp.AddOperator(&Operator{Name: "a", KeyGroups: 1, Proc: func(*Tuple, *State, Emit) {}})
			tp.ConnectTwoChoice("s", "a")
			return tp
		}},
		{"zero key groups", func() *Topology {
			tp := NewTopology().AddSource("s", func(int, Emit) {})
			tp.AddOperator(&Operator{Name: "a", KeyGroups: 0, Proc: func(*Tuple, *State, Emit) {}})
			return tp
		}},
	}
	for _, tc := range cases {
		if err := tc.build().Build(); err == nil {
			t.Errorf("%s: Build() = nil, want error", tc.name)
		}
	}
}

func TestTopologyGIDs(t *testing.T) {
	col := newCollector()
	tp := wordCountTopology([]string{"a"}, 1, 10, col)
	if err := tp.Build(); err != nil {
		t.Fatal(err)
	}
	if tp.NumGroups() != 17 { // 10 count + 7 sink groups
		t.Fatalf("NumGroups = %d, want 17", tp.NumGroups())
	}
	op, kg := tp.OpOf(13)
	if op != 1 || kg != 3 {
		t.Fatalf("OpOf(13) = (%d,%d), want (1,3)", op, kg)
	}
	if tp.GID(1, 3) != 13 {
		t.Fatalf("GID(1,3) = %d", tp.GID(1, 3))
	}
}

func TestWordCountCorrectness(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	col := newCollector()
	tp := wordCountTopology(words, 100, 8, col)
	e, err := New(tp, Config{Nodes: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const periods = 5
	for p := 0; p < periods; p++ {
		if _, err := e.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	// 100 tuples/period x 5 periods = 500, spread evenly over 5 words.
	for _, w := range words {
		if got := col.get(w); got != 100 {
			t.Fatalf("count[%s] = %v, want 100", w, got)
		}
	}
}

func TestStatsAndSnapshot(t *testing.T) {
	col := newCollector()
	tp := wordCountTopology([]string{"a", "b", "c", "d"}, 200, 8, col)
	e, err := New(tp, Config{Nodes: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ps, err := e.RunPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if ps.TuplesIn == 0 || ps.TuplesOut == 0 {
		t.Fatalf("stats empty: %+v", ps)
	}
	if ps.BytesCrossNode == 0 {
		t.Fatal("expected cross-node traffic on a 4-node cluster")
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	totalLoad := 0.0
	for _, g := range snap.Groups {
		totalLoad += g.Load
	}
	if totalLoad <= 0 {
		t.Fatal("no load recorded")
	}
	if len(commEdges(snap.Comm)) == 0 {
		t.Fatal("no communication matrix recorded")
	}
	// Communication must only be between count (op0) and sink (op1) groups.
	for pair := range commEdges(snap.Comm) {
		fromOp, _ := tp.OpOf(pair[0])
		toOp, _ := tp.OpOf(pair[1])
		if fromOp != 0 || toOp != 1 {
			t.Fatalf("unexpected comm edge %v (ops %d->%d)", pair, fromOp, toOp)
		}
	}
}

func TestAllocTelemetryAtPeriodBarriers(t *testing.T) {
	col := newCollector()
	tp := wordCountTopology([]string{"a", "b", "c", "d"}, 200, 8, col)
	e, err := New(tp, Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// The first period has no previous barrier sample to delta against.
	ps, err := e.RunPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if ps.Allocs != 0 || ps.AllocBytes != 0 {
		t.Fatalf("first period must report zero alloc telemetry, got %d objs / %d bytes", ps.Allocs, ps.AllocBytes)
	}
	// Later periods report barrier-to-barrier deltas; a period that
	// processed tuples allocated *something* (the counters are cumulative,
	// so deltas are also monotone-safe — never negative by construction).
	for p := 0; p < 3; p++ {
		ps, err = e.RunPeriod()
		if err != nil {
			t.Fatal(err)
		}
		if ps.Allocs == 0 || ps.AllocBytes == 0 {
			t.Fatalf("period %d: expected nonzero alloc telemetry, got %d objs / %d bytes", p+2, ps.Allocs, ps.AllocBytes)
		}
	}
}

func TestCollocationEliminatesSerialization(t *testing.T) {
	// Two operators with IDENTICAL key-group counts form a One-To-One
	// pattern: count kg k only ever sends to sink kg k. Collocating pairs
	// (aligned) must eliminate all op-to-op serialization.
	build := func() *Topology {
		tp := NewTopology()
		tp.AddSource("src", func(period int, emit Emit) {
			for i := 0; i < 300; i++ {
				emit(&Tuple{Key: fmt.Sprintf("w%d", i%6), TS: int64(i)})
			}
		})
		tp.AddOperator(&Operator{
			Name:      "count",
			KeyGroups: 8,
			Proc: func(tu *Tuple, st *State, emit Emit) {
				st.Table("c").Add(tu.Key, 1)
			},
			Flush: func(kg int, st *State, emit Emit) {
				for w, c := range st.Table("c").All() {
					emit((&Tuple{Key: w}).WithNum("count", c))
				}
				st.ClearTable("c")
			},
		})
		tp.AddOperator(&Operator{
			Name:      "sink",
			KeyGroups: 8,
			Proc:      func(tu *Tuple, st *State, emit Emit) {},
		})
		tp.Connect("src", "count")
		tp.Connect("count", "sink")
		if err := tp.Build(); err != nil {
			t.Fatal(err)
		}
		return tp
	}
	run := func(aligned bool) int64 {
		tp := build()
		initial := make([]int, tp.NumGroups())
		for kg := 0; kg < 8; kg++ {
			initial[tp.GID(0, kg)] = kg % 2
			if aligned {
				initial[tp.GID(1, kg)] = kg % 2
			} else {
				initial[tp.GID(1, kg)] = (kg + 1) % 2
			}
		}
		e, err := New(tp, Config{Nodes: 2}, initial)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		ps, err := e.RunPeriod()
		if err != nil {
			t.Fatal(err)
		}
		return ps.BytesCrossNode
	}
	alignedBytes := run(true)
	splitBytes := run(false)
	if alignedBytes != 0 {
		t.Fatalf("aligned allocation still serialized %d bytes between ops", alignedBytes)
	}
	if splitBytes == 0 {
		t.Fatal("split allocation produced no cross-node traffic; test is vacuous")
	}
}

func TestMigrationPreservesState(t *testing.T) {
	// Count per word with NO flush clearing (running totals kept in state),
	// migrate the groups mid-run, and verify totals survive.
	col := newCollector()
	tp := NewTopology()
	tp.AddSource("src", func(period int, emit Emit) {
		for i := 0; i < 50; i++ {
			emit(&Tuple{Key: fmt.Sprintf("k%d", i%10), TS: int64(i)})
		}
	})
	tp.AddOperator(&Operator{
		Name:      "tally",
		KeyGroups: 4,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			st.Add("total", 1)
		},
		Flush: func(kg int, st *State, emit Emit) {
			emit((&Tuple{Key: fmt.Sprintf("kg%d", kg)}).WithNum("total", st.Num("total")))
		},
	})
	tp.AddOperator(&Operator{
		Name:      "sink",
		KeyGroups: 2,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			col.mu.Lock()
			col.nums[strings.Clone(tu.Key)] = tu.Num("total") // latest running total per kg
			col.mu.Unlock()
		},
	})
	tp.Connect("src", "tally")
	tp.Connect("tally", "sink")
	e, err := New(tp, Config{Nodes: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	// Move every tally group to node 0 (forces state migration for most).
	alloc := e.Allocation()
	moves := 0
	for kg := 0; kg < 4; kg++ {
		gid := e.topo.GID(0, kg)
		if alloc[gid] != 0 {
			alloc[gid] = 0
			moves++
		}
	}
	if err := e.ApplyPlan(alloc); err != nil {
		t.Fatal(err)
	}
	ps, err := e.RunPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if ps.Migrations != moves {
		t.Fatalf("migrations = %d, want %d", ps.Migrations, moves)
	}
	if ps.MigrationLatency <= 0 {
		t.Fatal("migration latency not modeled")
	}
	// After 2 periods, running totals must sum to 100 across the 4 groups
	// (50 tuples per period, none lost during migration).
	total := 0.0
	col.mu.Lock()
	for _, v := range col.nums {
		total += v
	}
	col.mu.Unlock()
	if total != 100 {
		t.Fatalf("running totals sum to %v after migration, want 100", total)
	}
}

func TestScaleOutAndIn(t *testing.T) {
	col := newCollector()
	tp := wordCountTopology([]string{"a", "b", "c", "d"}, 100, 6, col)
	e, err := New(tp, Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	// Scale out: add a node, move some groups there.
	ids, err := e.AddNodes(1)
	if err != nil || len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("AddNodes = %v, %v", ids, err)
	}
	alloc := e.Allocation()
	alloc[0], alloc[1] = 2, 2
	if err := e.ApplyPlan(alloc); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	// Scale in: drain node 2 again, then terminate it.
	e.MarkForRemoval([]int{2})
	if err := e.TerminateNode(2); err == nil {
		t.Fatal("terminate must fail while groups remain")
	}
	alloc = e.Allocation()
	alloc[0], alloc[1] = 0, 1
	if err := e.ApplyPlan(alloc); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	if err := e.TerminateNode(2); err != nil {
		t.Fatalf("terminate after drain: %v", err)
	}
	// Plans must no longer target the removed node.
	alloc = e.Allocation()
	alloc[0] = 2
	if err := e.ApplyPlan(alloc); err == nil {
		t.Fatal("plan onto removed node must fail")
	}
	// The engine still runs.
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Kill[2] {
		t.Fatal("removed node must appear kill-marked in snapshots")
	}
}

func TestTwoChoiceRoutingSpreadsHotKey(t *testing.T) {
	// One scorching key; with two-choice routing its tuples must land on
	// both candidate key groups rather than a single one.
	tp := NewTopology()
	tp.AddSource("src", func(period int, emit Emit) {
		for i := 0; i < 400; i++ {
			emit(&Tuple{Key: "hot", TS: int64(i)})
		}
	})
	tp.AddOperator(&Operator{
		Name:      "pre",
		KeyGroups: 4,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			emit(tu)
		},
	})
	tp.AddOperator(&Operator{
		Name:      "agg",
		KeyGroups: 16,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			st.Add("n", 1)
		},
	})
	tp.Connect("src", "pre")
	tp.ConnectTwoChoice("pre", "agg")
	e, err := New(tp, Config{Nodes: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ps, err := e.RunPeriod()
	if err != nil {
		t.Fatal(err)
	}
	loaded := 0
	for kg := 0; kg < 16; kg++ {
		if ps.GroupUnits[e.topo.GID(1, kg)] > 0 {
			loaded++
		}
	}
	if loaded != 2 {
		t.Fatalf("hot key landed on %d agg groups, want exactly 2 (two choices)", loaded)
	}
}

func TestRunsAreDeterministicInAggregate(t *testing.T) {
	run := func() (int64, float64) {
		col := newCollector()
		tp := wordCountTopology([]string{"x", "y", "z"}, 150, 6, col)
		e, err := New(tp, Config{Nodes: 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var tin int64
		var units float64
		for p := 0; p < 3; p++ {
			ps, err := e.RunPeriod()
			if err != nil {
				t.Fatal(err)
			}
			tin += ps.TuplesIn
			for _, u := range ps.GroupUnits {
				units += u
			}
		}
		return tin, units
	}
	t1, u1 := run()
	t2, u2 := run()
	if t1 != t2 || u1 != u2 {
		t.Fatalf("nondeterministic aggregates: (%d,%v) vs (%d,%v)", t1, u1, t2, u2)
	}
}

func TestStateRoundTrip(t *testing.T) {
	s := statestore.NewState()
	s.Add("count", 7)
	s.Table("win").Set("a", 2)
	b := s.Encode(nil)
	got, err := statestore.DecodeState(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Num("count") != 7 || got.Table("win").Get("a") != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if s.Size() != len(b) {
		t.Fatalf("Size() = %d, want %d", s.Size(), len(b))
	}
}

func TestOperatorPanicContained(t *testing.T) {
	tp := NewTopology()
	tp.AddSource("src", func(period int, emit Emit) {
		for i := 0; i < 20; i++ {
			emit(&Tuple{Key: fmt.Sprintf("k%d", i), TS: int64(i)})
		}
	})
	tp.AddOperator(&Operator{
		Name:      "boom",
		KeyGroups: 4,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			if tu.Key == "k7" {
				panic("kaboom")
			}
			st.Add("n", 1)
		},
	})
	tp.Connect("src", "boom")
	e, err := New(tp, Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	_, err = e.RunPeriod()
	if err == nil {
		t.Fatal("expected the operator panic to surface as an error")
	}
	if want := "kaboom"; !contains(err.Error(), want) {
		t.Fatalf("error %q does not mention the panic", err)
	}
	// The engine must remain operational for subsequent periods.
	if _, err := e.RunPeriod(); err == nil {
		t.Fatal("k7 panics every period; error expected again")
	}
}

func TestSourcePanicContained(t *testing.T) {
	tp := NewTopology()
	tp.AddSource("src", func(period int, emit Emit) {
		panic("source exploded")
	})
	tp.AddOperator(&Operator{
		Name: "op", KeyGroups: 2,
		Proc: func(tu *Tuple, st *State, emit Emit) {},
	})
	tp.Connect("src", "op")
	e, err := New(tp, Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunPeriod(); err == nil {
		t.Fatal("expected source panic to surface")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}
