package core

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// BenchmarkPlanScaling measures one planner invocation at the scales the
// paper's cluster sizes imply (1k-16k key groups on 16/64 nodes), full vs
// incremental. Between invocations a small sliding window of groups (64) gets
// a >10% load change, so the incremental planner sees a partial dirty region
// each period — the steady-state regime the dirty-region mode is built for —
// while the full planner re-solves everything. The MILP time budget is
// pinned low (1ms) and MaxLD effectively disabled so the measurement is the
// scaling machinery (scoring, partitioning, problem construction, solver
// passes), not the configurable anytime budget.
func BenchmarkPlanScaling(b *testing.B) {
	for _, mode := range []string{"full", "incremental"} {
		for _, sz := range []struct{ groups, nodes int }{
			{1024, 16}, {4096, 16}, {16384, 16},
			{1024, 64}, {4096, 64}, {16384, 64},
		} {
			b.Run(fmt.Sprintf("%s/groups=%d,nodes=%d", mode, sz.groups, sz.nodes), func(b *testing.B) {
				s := synthSnapshot(sz.groups, sz.nodes, 99)
				a := &ALBIC{
					Seed:        7,
					TimeLimit:   time.Millisecond,
					MaxLD:       1e9, // one solve per invocation
					Incremental: mode == "incremental",
				}
				ctx := context.Background()
				if a.Incremental {
					// Seed the baseline directly instead of paying a full
					// warm-up solve: the measurement is the steady-state
					// period, where the tracker already has an observation.
					a.tracker.observe(s)
				}
				orig := make([]float64, len(s.Groups))
				for k, g := range s.Groups {
					orig[k] = g.Load
				}
				toggled := make([]bool, len(s.Groups))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Jitter a 64-group window (bounded: loads toggle between
					// orig and 1.5*orig, each flip a >10% delta).
					for j := 0; j < 64; j++ {
						k := (i*64 + j) % len(s.Groups)
						toggled[k] = !toggled[k]
						if toggled[k] {
							s.Groups[k].Load = orig[k] * 1.5
						} else {
							s.Groups[k].Load = orig[k]
						}
					}
					if _, err := a.Plan(ctx, s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
