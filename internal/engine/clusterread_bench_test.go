package engine

import (
	"fmt"
	"testing"

	"repro/internal/statestore"
)

// BenchmarkClusterRead measures the period barrier's read of the cluster —
// readStats, then the snapshot built from it — between periods, where the
// shards are as quiescent as at the barrier. It reads a small cluster (8 nodes, 64 key groups per
// operator) and one at the scale the planner is built for (16 nodes, 8,192
// key groups per operator, with enough distinct words to populate them).
// Neither holds a checkpoint tip, so neither sizes a delta. The third input
// is the small cluster with one: every group's state carries an rj3-sized
// table (750 cells) and a tip cut from it, and before each read 15 % of the
// cells are written again (untimed), the cells a period touched since the
// checkpoint.
func BenchmarkClusterRead(b *testing.B) {
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
			e, err := New(tp, Config{Nodes: c.nodes}, nil)
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
				read, err := e.readStats(pr)
				if err != nil {
					b.Fatal(err)
				}
				e.mu.Lock()
				e.snapshotOf(read)
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
