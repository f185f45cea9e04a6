package distrib

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/engine"
)

// TestBarrierPoolWidthInvariance: TakeCheckpoint cuts and writes tips on a
// pool as wide as GOMAXPROCS — in the engine process and, distributed, in the
// workers and in the controller's absorption of their replies. Whatever the
// width, the per-period statistics (CkptDeltaBytes among them), the checkpoint
// statistics and the checkpoint store's contents are those of width 1. Under
// -race this is also the check that the pool's workers share nothing.
func TestBarrierPoolWidthInvariance(t *testing.T) {
	type result struct {
		periods []periodSummary
		ckpts   []engine.CheckpointStats
		store   []byte
	}
	spec := equivSpec()
	deployments := map[string]func() result{
		"classic": func() result {
			topo, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			e, err := engine.New(topo, spec.Engine, spec.Initial)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			periods, ckpts := driveAdaptiveScript(t, e)
			return result{periods, ckpts, storePrint(e.CheckpointStore())}
		},
		"mem": func() result {
			e, stop, err := startMem(spec, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			periods, ckpts := driveAdaptiveScript(t, e)
			return result{periods, ckpts, storePrint(e.CheckpointStore())}
		},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want result
	for _, width := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(width)
		for name, run := range deployments {
			got := run()
			if want.store == nil {
				want = got // width 1, whichever deployment came first
				if len(want.ckpts) == 0 || want.ckpts[len(want.ckpts)-1].NewBytes == 0 {
					t.Fatalf("script took no incremental checkpoint: %+v", want.ckpts)
				}
				continue
			}
			comparePeriods(t, name, got.periods, want.periods)
			if !reflect.DeepEqual(got.ckpts, want.ckpts) {
				t.Errorf("%s at width %d: checkpoints %+v, want %+v", name, width, got.ckpts, want.ckpts)
			}
			if !bytes.Equal(got.store, want.store) {
				t.Errorf("%s at width %d: checkpoint store differs from width 1's", name, width)
			}
		}
	}
}
