package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/statestore"
)

// TestHotMoveMidPeriodPreservesCounts: a hot move in the middle of a period
// must migrate the group's partial state, re-route and forward in-flight
// tuples, and flush the group exactly once at its new host — the per-word
// totals reaching the sink stay exact, period for period.
func TestHotMoveMidPeriodPreservesCounts(t *testing.T) {
	words := []string{"a", "b", "c", "d", "e", "f"}
	const perPeriod, periods, kgs = 600, 6, 9
	col := newCollector()
	tp := wordCountTopology(words, perPeriod, kgs, col)
	e, err := New(tp, Config{Nodes: 3, SubPeriods: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	moved := 0
	var movedGid, movedTo int
	e.SetSubObserver(func(snap *core.Snapshot, period, sub int) []core.Move {
		if period != 3 || sub != 1 || moved > 0 {
			return nil
		}
		// Move the first group of the count operator (op 0) to another node.
		gid := e.topo.GID(0, 0)
		from := snap.Groups[gid].Node
		to := (from + 1) % 3
		moved++
		movedGid, movedTo = gid, to
		return []core.Move{{Group: gid, From: from, To: to}}
	})

	for p := 1; p <= periods; p++ {
		ps, err := e.RunPeriod()
		if err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		wantHot := 0
		if p == 3 {
			wantHot = 1
		}
		if ps.HotMoves != wantHot {
			t.Fatalf("period %d: HotMoves = %d, want %d", p, ps.HotMoves, wantHot)
		}
		// Every word's count must be flushed to the sink exactly once per
		// period, including the period with the mid-period migration.
		for _, w := range words {
			want := float64(p * perPeriod / len(words))
			if got := col.get(w); got != want {
				t.Fatalf("period %d: count[%s] = %v, want %v (hot move lost or duplicated tuples)", p, w, got, want)
			}
		}
	}
	if moved != 1 {
		t.Fatalf("observer fired %d times, want 1", moved)
	}
	if got := e.Allocation()[movedGid]; got != movedTo {
		t.Fatalf("group %d on node %d after run, want its hot-move target %d", movedGid, got, movedTo)
	}
	// The migration was counted in the period's stats (staged + hot).
	if e.last == nil {
		t.Fatal("no last period stats")
	}
}

// TestHotMoveRestrictionsSkipUnsafeMoves: moves targeting draining nodes,
// non-hosts, wrong From values, staged groups, or already-moved groups must
// be skipped silently, and the period must still complete exactly.
func TestHotMoveRestrictionsSkipUnsafeMoves(t *testing.T) {
	words := []string{"p", "q", "r", "s"}
	const perPeriod, kgs = 400, 8
	col := newCollector()
	tp := wordCountTopology(words, perPeriod, kgs, col)
	// All count groups on nodes 0 and 1; node 2 never hosts op 0.
	if err := tp.Build(); err != nil {
		t.Fatal(err)
	}
	initial := make([]int, tp.NumGroups())
	for gid := range initial {
		initial[gid] = gid % 2
	}
	e, err := New(tp, Config{Nodes: 3, SubPeriods: 2}, initial)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MarkForRemoval([]int{1})

	gid := e.topo.GID(0, 0) // on node 0
	e.SetSubObserver(func(snap *core.Snapshot, period, sub int) []core.Move {
		if period != 2 {
			return nil
		}
		return []core.Move{
			{Group: gid, From: 0, To: 2},              // node 2 does not host op 0
			{Group: gid, From: 1, To: 1},              // wrong From (stale decision)
			{Group: e.topo.GID(0, 1), From: 1, To: 1}, // To == From
			{Group: e.topo.GID(0, 2), From: 0, To: 1}, // target is draining
			{Group: -1, From: 0, To: 1},               // out of range
			{Group: len(initial) + 5, From: 0, To: 1}, // out of range
		}
	})
	for p := 1; p <= 3; p++ {
		ps, err := e.RunPeriod()
		if err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		if ps.HotMoves != 0 {
			t.Fatalf("period %d executed %d unsafe hot moves", p, ps.HotMoves)
		}
	}
	for _, w := range words {
		if got, want := col.get(w), float64(3*perPeriod/len(words)); got != want {
			t.Fatalf("count[%s] = %v, want %v", w, got, want)
		}
	}
}

// TestConcurrentSnapshotSubSnapshotApplyPlan is the race/property test of
// the reactive surfaces: Snapshot, Allocation and ApplyPlan hammered from
// multiple goroutines against a running engine.Run must never observe a torn
// allocation (ApplyPlan writes whole plans; readers must see one of them,
// never a mix) and must preserve the per-sender FIFO invariant (exact
// per-word totals at the sink). Run under -race.
func TestConcurrentSnapshotSubSnapshotApplyPlan(t *testing.T) {
	words := []string{"v", "w", "x", "y", "z"}
	const perPeriod, periods, kgs = 500, 10, 8
	col := newCollector()
	tp := wordCountTopology(words, perPeriod, kgs, col)
	if err := tp.Build(); err != nil {
		t.Fatal(err)
	}
	numGroups := tp.NumGroups()
	// Uniform initial allocation (everything on node 0): every allocation
	// the run can legally observe is then uniform — the writer below only
	// ever installs whole uniform plans, so any mixed vector is a tear.
	e, err := New(tp, Config{Nodes: 2, SubPeriods: 4}, make([]int, numGroups))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan error, 16)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}

	// Writer: alternate two uniform plans (all groups on node 0 / node 1).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			plan := make([]int, numGroups)
			if i%2 == 1 {
				for g := range plan {
					plan[g] = 1
				}
			}
			if err := e.ApplyPlan(plan); err != nil {
				report(fmt.Errorf("ApplyPlan: %v", err))
				return
			}
		}
	}()

	// Readers: the target allocation must always be uniform — a mixed
	// vector means a torn read of a concurrently applied plan.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				alloc := e.Allocation()
				for g := 1; g < len(alloc); g++ {
					if alloc[g] != alloc[0] {
						report(fmt.Errorf("torn allocation: group 0 on %d, group %d on %d", alloc[0], g, alloc[g]))
						return
					}
				}
			}
		}()
	}

	// Snapshot readers: structural validity under load.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if snap, err := e.Snapshot(); err == nil {
					if err := snap.Validate(); err != nil {
						report(fmt.Errorf("Snapshot invalid: %v", err))
						return
					}
				}
			}
		}()
	}

	if err := e.Run(context.Background(), periods, nil); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	// FIFO invariant: despite continuous concurrent re-planning, no tuple
	// was lost or duplicated anywhere in the pipeline.
	for _, w := range words {
		if got, want := col.get(w), float64(periods*perPeriod/len(words)); got != want {
			t.Fatalf("count[%s] = %v, want %v (tuples lost under concurrent replanning)", w, got, want)
		}
	}
}

// BenchmarkSubSnapshot measures the read a segment boundary hands the
// observer — readStats, the period barrier's read, then the snapshot built
// from it — between periods, where the shards are as quiescent as at a
// segment boundary. It reads a small cluster (8 nodes, 64 key groups per
// operator) and one at the scale the planner is built for (16 nodes, 8,192
// key groups per operator, with enough distinct words to populate them).
// Neither holds a checkpoint tip, so neither sizes a delta. The third input
// is the small cluster with one: every group's state carries an rj3-sized
// table (750 cells) and a tip cut from it, and before each read 15 % of the
// cells are written again (untimed), the cells a period touched since the
// checkpoint.
func BenchmarkSubSnapshot(b *testing.B) {
	for _, c := range []struct {
		nodes, keyGroups, words int
		tipped                  bool
	}{
		{nodes: 8, keyGroups: 64, words: 4},
		{nodes: 16, keyGroups: 8192, words: 1 << 15},
		{nodes: 8, keyGroups: 64, words: 4, tipped: true},
	} {
		name := fmt.Sprintf("nodes=%d,kg=%d", c.nodes, c.keyGroups)
		if c.tipped {
			name += ",tipped"
		}
		b.Run(name, func(b *testing.B) {
			words := make([]string, c.words)
			for i := range words {
				words[i] = fmt.Sprintf("w%d", i)
			}
			col := newCollector()
			tp := wordCountTopology(words, max(2000, c.words), c.keyGroups, col)
			e, err := New(tp, Config{Nodes: c.nodes, SubPeriods: 4}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			ps, err := e.RunPeriod()
			if err != nil {
				b.Fatal(err)
			}
			var touched []tippedTable
			if c.tipped {
				touched = tipEveryGroup(e, 750, 0.15)
			}
			pr := &periodRun{period: ps.Period, alloc: ps.GroupNode}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.tipped {
					b.StopTimer()
					for _, tt := range touched {
						for _, k := range tt.keys {
							tt.t.Add(k, float64(1-2*(i%2)))
						}
					}
					b.StartTimer()
				}
				sub, err := e.readStats(pr)
				if err != nil {
					b.Fatal(err)
				}
				e.mu.Lock()
				e.snapshotOf(sub, nil)
				e.mu.Unlock()
			}
		})
	}
}

// tippedTable is a group's table and the keys of the cells a period writes.
type tippedTable struct {
	t    *statestore.Table
	keys []string
}

// tipEveryGroup gives every live group of e's shards a table of cells cells
// under rj3's byYear keys ("plane|year"), cuts a checkpoint tip from each
// state, writes share of each table's cells again and returns those cells.
func tipEveryGroup(e *Engine, cells int, share float64) []tippedTable {
	var touched []tippedTable
	var d statestore.Delta
	for sh := range e.localShards {
		for gid, st := range sh.states {
			if st == nil {
				continue
			}
			tt := tippedTable{t: st.Table("byYear")}
			for i := 0; i < cells; i++ {
				k := fmt.Sprintf("N%05d|%d", (gid*cells+i)/10, 2004+i%10)
				tt.t.Add(k, float64(i))
				if float64(i) < share*float64(cells) {
					tt.keys = append(tt.keys, k)
				}
			}
			tip := &statestore.Tip{}
			tip.Cut(&d, 0, st)
			sh.tips[gid] = tip
			for _, k := range tt.keys {
				tt.t.Add(k, 1)
			}
			touched = append(touched, tt)
		}
	}
	return touched
}
