package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// twoChoiceTopology: a pass-through stage feeding a two-choice aggregation,
// keyed over many distinct keys so both PoTC candidates spread across the
// cluster.
func twoChoiceTopology(perPeriod int) *Topology {
	tp := NewTopology()
	tp.AddSource("src", func(period int, emit Emit) {
		for i := 0; i < perPeriod; i++ {
			emit(&Tuple{Key: fmt.Sprintf("k%04d", i%200), TS: int64(i)})
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
			st.Add("n", 1)
		},
	})
	tp.Connect("src", "pre")
	tp.ConnectTwoChoice("pre", "agg")
	return tp
}

// aggUnitsByNode sums the agg operator's per-group cost units by hosting
// node.
func aggUnitsByNode(e *Engine, ps *PeriodStats) []float64 {
	units := make([]float64, len(e.nodes))
	for kg := 0; kg < 16; kg++ {
		gid := e.topo.GID(1, kg)
		units[ps.GroupNode[gid]] += ps.GroupUnits[gid]
	}
	return units
}

// TestTwoChoiceHeterogeneousRouting: on a heterogeneous cluster, PoTC
// two-choice routing must send work in proportion to node capacity weights
// instead of treating nodes as equal (which would bias load onto the weak
// node). Node 0 has 4x node 1's capacity; the agg work landing on node 0
// must be a clear multiple of node 1's, where the homogeneous balancer
// splits roughly evenly.
func TestTwoChoiceHeterogeneousRouting(t *testing.T) {
	run := func(weights []float64) []float64 {
		tp := twoChoiceTopology(4000)
		e, err := New(tp, Config{Nodes: 2, CapacityWeights: weights}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var last *PeriodStats
		for p := 0; p < 3; p++ {
			ps, err := e.RunPeriod()
			if err != nil {
				t.Fatal(err)
			}
			last = ps
		}
		return aggUnitsByNode(e, last)
	}

	homog := run(nil)
	if homog[0] > 1.5*homog[1] || homog[1] > 1.5*homog[0] {
		t.Fatalf("homogeneous PoTC split %v should be roughly even", homog)
	}
	// Only keys whose two hash candidates straddle the nodes are steerable
	// (~half the traffic), so the full 4:1 capacity ratio is not reachable —
	// but the strong node must absorb a clearly larger share than under the
	// capacity-blind homogeneous policy.
	hetero := run([]float64{4, 1})
	ratioHomog, ratioHetero := homog[0]/homog[1], hetero[0]/hetero[1]
	if ratioHetero < 1.5 || ratioHetero < 1.3*ratioHomog {
		t.Fatalf("heterogeneous PoTC split %v (ratio %.2f vs homogeneous %.2f): the 4x-capacity node should absorb clearly more work", hetero, ratioHetero, ratioHomog)
	}
}

// TestTwoChoiceHeterogeneousIsDeterministic: a PoTC sender decides from its
// own counters alone, weighted by capacity, so a heterogeneous run is a
// function of its input: two runs of the 4:1 cluster charge every group the
// same units in every period, at one shard per node and at two.
func TestTwoChoiceHeterogeneousIsDeterministic(t *testing.T) {
	run := func(spn int) [][]float64 {
		e, err := New(twoChoiceTopology(4000), Config{Nodes: 2, CapacityWeights: []float64{4, 1}, ShardsPerNode: spn}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var units [][]float64
		for p := 0; p < 4; p++ {
			ps, err := e.RunPeriod()
			if err != nil {
				t.Fatal(err)
			}
			units = append(units, slices.Clone(ps.GroupUnits))
		}
		return units
	}
	for _, spn := range []int{1, 2} {
		first, again := run(spn), run(spn)
		for p := range first {
			if !slices.Equal(first[p], again[p]) {
				t.Errorf("ShardsPerNode %d, period %d: GroupUnits %v, then %v", spn, p, first[p], again[p])
			}
		}
	}
}

// TestRunMatchesRunPeriod: the continuous Run driver (sources generated off
// the control goroutine) must produce the same aggregate statistics as the
// lockstep RunPeriod loop.
func TestRunMatchesRunPeriod(t *testing.T) {
	aggregate := func(useRun bool) (int64, float64) {
		col := newCollector()
		tp := wordCountTopology([]string{"x", "y", "z", "w"}, 300, 6, col)
		e, err := New(tp, Config{Nodes: 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var tin int64
		var units float64
		add := func(ps *PeriodStats) {
			tin += ps.TuplesIn
			for _, u := range ps.GroupUnits {
				units += u
			}
		}
		if useRun {
			if err := e.Run(context.Background(), 4, func(ps *PeriodStats) error {
				add(ps)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		} else {
			for p := 0; p < 4; p++ {
				ps, err := e.RunPeriod()
				if err != nil {
					t.Fatal(err)
				}
				add(ps)
			}
		}
		return tin, units
	}
	t1, u1 := aggregate(false)
	t2, u2 := aggregate(true)
	if t1 != t2 || u1 != u2 {
		t.Fatalf("Run aggregates (%d, %v) differ from RunPeriod (%d, %v)", t2, u2, t1, u1)
	}
}

// TestRunObserveError: an observe error stops the run and surfaces.
func TestRunObserveError(t *testing.T) {
	col := newCollector()
	tp := wordCountTopology([]string{"a", "b"}, 50, 4, col)
	e, err := New(tp, Config{Nodes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	boom := fmt.Errorf("observe says stop")
	n := 0
	err = e.Run(context.Background(), 10, func(ps *PeriodStats) error {
		n++
		if n == 2 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("Run = %v, want the observe error", err)
	}
	if n != 2 {
		t.Fatalf("observed %d periods, want 2", n)
	}
}

// TestRunSourcePanicSurfaces: a panicking source aborts the continuous
// driver with an error instead of hanging the barrier protocol — also when it
// panics in the middle of a period, after frames of it have shipped.
func TestRunSourcePanicSurfaces(t *testing.T) {
	for _, in := range []struct {
		name      string
		perPeriod int // tuples per period
		panicAt   int // period 2 panics instead of emitting this tuple
	}{
		{"lockstep", 20, 0},
		{"mid-period", 5000, 3000},
	} {
		t.Run(in.name, func(t *testing.T) {
			tp := NewTopology()
			tp.AddSource("src", func(period int, emit Emit) {
				for i := 0; i < in.perPeriod; i++ {
					if period == 2 && i == in.panicAt {
						panic("source exploded mid-run")
					}
					emit(&Tuple{Key: fmt.Sprintf("k%d", i), TS: int64(i)})
				}
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
			err = e.Run(context.Background(), 5, nil)
			if err == nil || !contains(err.Error(), "source exploded") {
				t.Fatalf("Run = %v, want the source panic", err)
			}
		})
	}
}

// TestApplyPlanDuringInFlightPeriod: staging plans concurrently with a
// running period must be race-free, never lose tuples, and take effect at
// the next period boundary (the in-flight period keeps its installed
// allocation).
func TestApplyPlanDuringInFlightPeriod(t *testing.T) {
	col := newCollector()
	tp := wordCountTopology([]string{"p", "q", "r", "s", "t"}, 500, 8, col)
	e, err := New(tp, Config{Nodes: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const periods = 12
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		// Asynchronous "planner": continuously re-target a rotating group
		// while periods are in flight.
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			alloc := e.Allocation()
			alloc[i%len(alloc)] = i % 3
			if err := e.ApplyPlan(alloc); err != nil {
				t.Errorf("ApplyPlan: %v", err)
				return
			}
			i++
		}
	}()
	if err := e.Run(context.Background(), periods, nil); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	// 500 tuples/period x 12 periods over 5 words = 1200 per word reaching
	// the sink, regardless of how many migrations the concurrent planner
	// staged.
	for _, w := range []string{"p", "q", "r", "s", "t"} {
		if got := col.get(w); got != float64(periods)*100 {
			t.Fatalf("count[%s] = %v, want %v (tuples lost under concurrent plan staging)", w, got, periods*100)
		}
	}
}
