package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/transport"
)

// turnoverTopology runs two operators side by side: "window" keeps one table
// of the current period's cells, so one period after a checkpoint its delta
// against the tip is larger than the state itself, and "grow" builds a large
// table in the first two periods and then adds a trickle, so its delta stays
// small.
func turnoverTopology(kgs int) *Topology {
	tp := NewTopology()
	tp.AddSource("wsrc", func(period int, emit Emit) {
		for i := 0; i < 400; i++ {
			emit(&Tuple{Key: fmt.Sprintf("k%d", i%40), TS: int64(period*1000 + i)})
		}
	})
	tp.AddOperator(&Operator{
		Name:      "window",
		KeyGroups: kgs,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			if p := float64(tu.TS / 1000); st.Num("period") != p {
				st.Add("period", p-st.Num("period"))
				st.ClearTable("win")
			}
			st.Table("win").Set(fmt.Sprintf("p%d-t%d", tu.TS/1000, tu.TS), 1)
		},
	})
	tp.AddSource("gsrc", func(period int, emit Emit) {
		n := 600
		if period > 2 {
			n = 40
		}
		for i := 0; i < n; i++ {
			emit(&Tuple{Key: fmt.Sprintf("p%d-i%d", period, i), TS: int64(period*100000 + i)})
		}
	})
	tp.AddOperator(&Operator{
		Name:      "grow",
		KeyGroups: kgs,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			st.Add("total", 1)
			st.Table("seen").Set(tu.Key, 1)
		},
	})
	tp.Connect("wsrc", "window")
	tp.Connect("gsrc", "grow")
	return tp
}

// TestUselessPrecopyIsNotShipped: a checkpointed group whose delta against its
// tip is no smaller than its state moves whole — the source decides that, off
// the delta the barrier measured — so nothing is pre-copied for it. Per
// period, PrecopyBytes is exactly the checkpoints of the groups that then
// moved by delta (they are the ones whose tip travelled), and what the moves
// cost and where the tips end up (read off the shards of every process) are
// the constants recorded before the controller looked, in the zero-worker
// layout and on a cluster of two workers.
func TestUselessPrecopyIsNotShipped(t *testing.T) {
	const kgs, nodes = 4, 4
	type want struct {
		migrations         int
		migratedDeltaBytes int64
		movedBytes         int // MigrationLatency / migrSecondsPerByte
		deferred           int
		tipAt              string // where each group's tip is after the period
	}
	// Recorded at the parent commit (PR 24), which pre-copied 25,968 B in period
	// 5 and 28,328 B in period 9 to use 19,076 B and 21,436 B of it.
	wants := map[int]want{
		5: {migrations: 8, migratedDeltaBytes: 1288, movedBytes: 8180, tipAt: "[-1 -1 -1 -1 1 2 3 0]"},
		7: {migrations: 8, migratedDeltaBytes: 56, movedBytes: 56, tipAt: "[2 3 0 1 2 3 0 1]"},
		9: {migrations: 8, migratedDeltaBytes: 1288, movedBytes: 8180, tipAt: "[-1 -1 -1 -1 3 0 1 2]"},
	}
	layouts := map[string]func() tipLayout{
		"zero-worker": func() tipLayout {
			e, err := New(turnoverTopology(kgs), Config{Nodes: nodes}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return tipLayout{ctrl: e, procs: []*Engine{e}, stop: func() { e.Close() }}
		},
		"two workers": func() tipLayout {
			eps := transport.NewMemCluster(2)
			peerOf := []int{1, 2, 1, 2}
			l := tipLayout{procs: make([]*Engine, 3)}
			var wg sync.WaitGroup
			for i := 1; i <= 2; i++ {
				w, err := NewWorker(turnoverTopology(kgs), Config{Nodes: nodes}, nil, eps[i], peerOf)
				if err != nil {
					t.Fatal(err)
				}
				l.procs[i] = w
				wg.Add(1)
				go func() {
					defer wg.Done()
					w.ServeWorker() //nolint:errcheck // ends on the controller's bye
				}()
			}
			e, err := NewDistributed(turnoverTopology(kgs), Config{Nodes: nodes}, nil, eps[0], peerOf)
			if err != nil {
				t.Fatal(err)
			}
			l.ctrl, l.procs[0] = e, e
			l.stop = func() { e.Close(); wg.Wait() }
			return l
		},
	}
	for name, build := range layouts {
		t.Run(name, func(t *testing.T) {
			l := build()
			defer l.stop()
			e := l.ctrl
			rotate := func() {
				t.Helper()
				plan := e.Allocation()
				for gid := range plan {
					plan[gid] = (plan[gid] + 1) % nodes
				}
				if err := e.ApplyPlan(plan); err != nil {
					t.Fatal(err)
				}
			}
			// Periods 1-2 build, a checkpoint, periods 3-4 turn the windows
			// over; period 5 rotates (the windows move whole, the grown
			// tables by delta); a checkpoint after period 6 makes every delta
			// empty, so period 7's rotation moves everything by delta; by
			// period 9 the windows have turned over again.
			for p := 1; p <= 9; p++ {
				switch p {
				case 3, 7:
					e.TakeCheckpoint()
				}
				switch p {
				case 5, 7, 9:
					rotate()
				}
				ps, err := e.RunPeriod()
				if err != nil {
					t.Fatal(err)
				}
				w := wants[p]
				tipAt := l.tipHolders(t)
				byDelta, precopy := 0, int64(0)
				for gid, node := range ps.GroupNode {
					if w.migrations > 0 && tipAt[gid] == node {
						byDelta++
						enc, _, _ := e.CheckpointStore().EncodedState(gid)
						precopy += int64(len(enc))
					}
				}
				got := want{ps.Migrations, ps.MigratedDeltaBytes, int(ps.MigrationLatency/migrSecondsPerByte + 0.5), ps.DeferredMoves, fmt.Sprint(tipAt)}
				if w.migrations == 0 {
					got.tipAt = ""
				}
				if got != w {
					t.Errorf("period %d: moves %+v, want %+v", p, got, w)
				}
				if ps.PrecopyBytes != precopy {
					t.Errorf("period %d: pre-copied %d B, the %d groups that moved by delta have %d B of checkpoint", p, ps.PrecopyBytes, byDelta, precopy)
				}
			}
		})
	}
}
