package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentSnapshotApplyPlan is the race/property test of the surfaces
// an asynchronous planner uses: Snapshot, Allocation and ApplyPlan hammered from
// multiple goroutines against a running engine.Run must never observe a torn
// allocation (ApplyPlan writes whole plans; readers must see one of them,
// never a mix) and must preserve the per-sender FIFO invariant (exact
// per-word totals at the sink). Run under -race.
func TestConcurrentSnapshotApplyPlan(t *testing.T) {
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
	e, err := New(tp, Config{Nodes: 2}, make([]int, numGroups))
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
