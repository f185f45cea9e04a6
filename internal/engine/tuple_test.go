package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/codec"
)

// TestProcForwardsItsInput: a Proc may emit the tuple it was handed. A draws
// an output tuple from its shard's free list and emits it to F — keyed so the
// delivery is shard-local, so F runs inside A's Emit on the very tuple — and
// then to D; F forwards it as is to B and C. A's Emit still owns the tuple
// while F runs: F's Emit must not recycle it, or D reads a blank tuple. Every
// source tuple must reach B, C and D exactly once with every field intact.
func TestProcForwardsItsInput(t *testing.T) {
	for _, spn := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", spn), func(t *testing.T) {
			testProcForwardsItsInput(t, spn)
		})
	}
}

func testProcForwardsItsInput(t *testing.T, spn int) {
	const (
		keys      = 30
		perPeriod = 3000
		periods   = 3
		kgs       = 8
	)
	// fkey[k] is the key A gives its output for input key k: one whose F
	// group lives on the shard of k's A group. Filled before the first period.
	fkey := map[string]string{}

	var mu sync.Mutex
	seen := map[string]map[int64]int{} // op -> seq -> deliveries
	damaged := map[string]int{}
	check := func(op string) ProcFunc {
		return func(tu *Tuple, st *State, emit Emit) {
			src := tu.Str("src")
			ok := src != "" && tu.Key == fkey[src] && tu.Num("seq") == float64(tu.TS) && len(tu.strs)+len(tu.nums) == 2
			mu.Lock()
			defer mu.Unlock()
			if !ok {
				damaged[op]++
				return
			}
			seen[op][tu.TS]++
		}
	}

	tp := NewTopology()
	seq := int64(0)
	tp.AddSource("src", func(period int, emit Emit) {
		for i := 0; i < perPeriod; i++ {
			seq++
			emit(NewTuple(fmt.Sprintf("k%02d", i%keys), seq).WithNum("seq", float64(seq)))
		}
	})
	tp.AddOperator(&Operator{Name: "A", KeyGroups: kgs, Proc: func(tu *Tuple, st *State, emit Emit) {
		emit(tu.NewTuple(fkey[tu.Key], tu.TS).WithStr("src", tu.Key).WithNum("seq", tu.Num("seq")))
	}})
	tp.AddOperator(&Operator{Name: "F", KeyGroups: kgs, Proc: func(tu *Tuple, st *State, emit Emit) {
		emit(tu)
	}})
	for _, op := range []string{"B", "C", "D"} {
		seen[op] = map[int64]int{}
		tp.AddOperator(&Operator{Name: op, KeyGroups: kgs, Proc: check(op)})
	}
	tp.Connect("src", "A")
	tp.Connect("A", "F") // F first: A routes to D after F has returned
	tp.Connect("A", "D")
	tp.Connect("F", "B")
	tp.Connect("F", "C")

	e, err := New(tp, Config{Nodes: 1, ShardsPerNode: spn}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a, f := e.topo.byName["A"], e.topo.byName["F"]
	shardOf := func(op int, key string) uint8 {
		return e.shardIdx[e.topo.GID(op, int(codec.Hash(key)%kgs))]
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%02d", i)
		for j := 0; fkey[k] == ""; j++ {
			if c := fmt.Sprintf("f%d", j); shardOf(f, c) == shardOf(a, k) {
				fkey[k] = c
			}
		}
	}

	for p := 1; p <= periods; p++ {
		if _, err := e.RunPeriod(); err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
	}
	for _, op := range []string{"B", "C", "D"} {
		if damaged[op] > 0 {
			t.Errorf("%s got %d damaged tuples", op, damaged[op])
		}
		if n := len(seen[op]); n != periods*perPeriod {
			t.Errorf("%s saw %d distinct tuples, want %d", op, n, periods*perPeriod)
		}
		for s, n := range seen[op] {
			if n != 1 {
				t.Errorf("%s got tuple %d %d times", op, s, n)
				break
			}
		}
	}
}

// TestPooledTupleReturnsToItsPool: Emit recycles a pooled tuple into the pool
// it came from. A's Flush emits more engine.NewTuple tuples than a shard's
// free list holds, beside the free-list tuples A's Proc emits; afterwards every
// tuple on a shard's free list is that shard's own, and the Flush's tuples
// were recycled into the global pool, none onto a free list.
func TestPooledTupleReturnsToItsPool(t *testing.T) {
	const kgs = 4
	var mu sync.Mutex
	var flushed []*Tuple
	tp := NewTopology()
	tp.AddSource("src", func(period int, emit Emit) {
		for i := 0; i < 400; i++ {
			emit(NewTuple(fmt.Sprintf("k%03d", i), int64(i)))
		}
	})
	tp.AddOperator(&Operator{
		Name: "A", KeyGroups: kgs,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			emit(tu.NewTuple(tu.Key, tu.TS).WithStr("via", "proc"))
		},
		Flush: func(kg int, st *State, emit Emit) {
			for i := 0; i < tupleFreeListMax+100; i++ {
				out := NewTuple(fmt.Sprintf("f%d-%d", kg, i), int64(i))
				mu.Lock()
				flushed = append(flushed, out)
				mu.Unlock()
				emit(out.WithStr("via", "flush"))
			}
		},
	})
	tp.AddOperator(&Operator{Name: "B", KeyGroups: kgs, Proc: func(*Tuple, *State, Emit) {}})
	tp.Connect("src", "A")
	tp.Connect("A", "B")

	e, err := New(tp, Config{Nodes: 1, ShardsPerNode: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}

	onList := map[*Tuple]bool{}
	for _, s := range e.nodes[0].shards {
		if len(s.tp.free) == 0 {
			t.Fatalf("shard %d: empty free list, the Proc's tuples went elsewhere", s.sid)
		}
		for _, tu := range s.tp.free {
			if tu.home != &s.tp {
				t.Fatalf("shard %d: free list holds a tuple that is not its own (home %p)", s.sid, tu.home)
			}
			onList[tu] = true
		}
	}
	if len(flushed) != kgs*(tupleFreeListMax+100) {
		t.Fatalf("Flush emitted %d tuples, want %d", len(flushed), kgs*(tupleFreeListMax+100))
	}
	for _, tu := range flushed {
		if onList[tu] || tu.home != nil {
			t.Fatal("a global-pool tuple ended up on a shard free list")
		}
		if tu.pooled || tu.Key != "" || len(tu.strs)+len(tu.nums) != 0 {
			t.Fatalf("a flushed tuple was not recycled: key %q pooled %v", tu.Key, tu.pooled)
		}
	}
}
