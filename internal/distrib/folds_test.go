package distrib

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/engine"
	"repro/internal/transport"
	"repro/internal/workload"
)

// foldKeys returns period's keys: per key group (of kgs, by the routing hash)
// n keys of length size, none seen in another period.
func foldKeys(period, kgs, n, size int) []string {
	var keys []string
	quota := make([]int, kgs)
	for i, left := 0, kgs*n; left > 0; i++ {
		k := fmt.Sprintf("p%02d-%0*d", period, size-4, i)
		if g := int(codec.Hash(k) % uint64(kgs)); quota[g] < n {
			quota[g]++
			keys = append(keys, k)
			left--
		}
	}
	return keys
}

// foldJob is a job whose checkpoint chains are known to the byte: one
// operator keeps every key it sees in a table, and every key group gets the
// same cells each period. Period 1's ten 8-byte keys make a 179-byte base;
// period 2's one 67-byte key is a delta of 89 bytes, exactly the chain's fold
// bound, which Record takes without folding; from period 3 on one 8-byte key
// a period is a 30-byte delta, the first of which folds the chain (its bound
// is 0 then) and later ones fold it again each time it passes half its base.
func foldJob(cfg workload.JobConfig) (*engine.Topology, error) {
	kgs := cfg.KeyGroups
	tp := engine.NewTopology()
	tp.AddSource("src", func(period int, emit engine.Emit) {
		n, size := 1, 8
		switch period {
		case 1:
			n = 10
		case 2:
			size = 67
		}
		for _, k := range foldKeys(period, kgs, n, size) {
			emit(&engine.Tuple{Key: k})
		}
	})
	tp.AddOperator(&engine.Operator{
		Name:      "seen",
		KeyGroups: kgs,
		Proc: func(tu *engine.Tuple, st *engine.State, emit engine.Emit) {
			st.Table("seen").Set(tu.Key, 1)
		},
	})
	tp.Connect("src", "seen")
	return tp, nil
}

func init() { Jobs["folds"] = foldJob }

// foldRun is what one layout made of the fold script: every checkpoint's
// stats, the store's bytes at the end, and — read through the store between
// checkpoints — each group's fold bound before checkpoint 2 and its chain
// length after every checkpoint.
type foldRun struct {
	stats  []engine.CheckpointStats
	store  []byte
	bound2 []int
	chains [][]int
}

// driveFolds checkpoints after every period for 14 periods, and rotates every
// group one node forward before period 7, so the moves pre-copy tips whose
// chains the next checkpoint folds into those tips.
func driveFolds(t *testing.T, e *engine.Engine, kgs int) foldRun {
	t.Helper()
	var r foldRun
	for p := 1; p <= 14; p++ {
		if p == 7 {
			plan := e.Allocation()
			for gid := range plan {
				plan[gid] = (plan[gid] + 1) % 3
			}
			if err := e.ApplyPlan(plan); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.RunPeriod(); err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		if p == 2 {
			for gid := 0; gid < kgs; gid++ {
				r.bound2 = append(r.bound2, e.CheckpointStore().FoldBound(gid))
			}
		}
		r.stats = append(r.stats, e.TakeCheckpoint())
		chain := make([]int, kgs)
		for gid := range chain {
			chain[gid] = e.CheckpointStore().ChainLen(gid)
		}
		r.chains = append(r.chains, chain)
	}
	r.store = e.CheckpointStore().Encode(nil)
	return r
}

// TestLayoutsAgreeAcrossFolds: whoever holds a tip writes the base its chain
// folds into — at the bound a delta is still recorded, one byte past it the
// chain folds — and a chain a pre-copy read whole is folded into the bytes the
// tip-holder sends along. Every layout (one process, a mem cluster, a mixed
// one, TCP) takes the same checkpoints with the same stats and leaves the same
// store bytes, through a delta of exactly the bound and at least two folds of
// every group's chain.
func TestLayoutsAgreeAcrossFolds(t *testing.T) {
	const kgs = 6
	spec := JobSpec{
		Job:       "folds",
		Workload:  workload.JobConfig{KeyGroups: kgs},
		Engine:    engine.Config{Nodes: 3},
		NodePeers: DefaultPeers(3, 2),
	}
	topo, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	classicEngine, err := engine.New(topo, spec.Engine, nil)
	if err != nil {
		t.Fatal(err)
	}
	classic := driveFolds(t, classicEngine, kgs)
	classicEngine.Close()

	// The script does what it says, seen through the store.
	for gid := 0; gid < kgs; gid++ {
		if got := classic.stats[1].NewBytes / kgs; classic.bound2[gid] != got || classic.chains[1][gid] != 1 {
			t.Fatalf("group %d: checkpoint 2 cut %d B against a bound of %d and left a chain of %d, want a delta of exactly the bound, recorded", gid, got, classic.bound2[gid], classic.chains[1][gid])
		}
		folds := 0
		for i := 1; i < len(classic.chains); i++ {
			if classic.chains[i-1][gid] > 0 && classic.chains[i][gid] == 0 {
				folds++
			}
		}
		if folds < 2 {
			t.Fatalf("group %d: its chain folded %d times, want at least 2 (chains %v)", gid, folds, classic.chains)
		}
	}

	layouts := map[string]func() foldRun{
		"mem": func() foldRun {
			e, stop, err := StartMem(spec, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			return driveFolds(t, e, kgs)
		},
		"mixed": func() foldRun {
			mixed := spec
			mixed.NodePeers = []int{0, 1, 2}
			e, stop, err := StartMem(mixed, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			return driveFolds(t, e, kgs)
		},
		"tcp": func() foldRun {
			host, err := transport.ListenCluster("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if werr := RunWorker(host.Addr(), "127.0.0.1:0", 1); werr != nil {
						t.Errorf("worker: %v", werr)
					}
				}()
			}
			e, err := StartHost(host, 2, spec)
			if err != nil {
				t.Fatal(err)
			}
			defer wg.Wait()
			defer e.Close()
			return driveFolds(t, e, kgs)
		},
	}
	for name, run := range layouts {
		got := run()
		if !reflect.DeepEqual(got.stats, classic.stats) {
			t.Errorf("%s: checkpoints %+v, one process took %+v", name, got.stats, classic.stats)
		}
		if !reflect.DeepEqual(got.chains, classic.chains) {
			t.Errorf("%s: chain lengths %v, one process's %v", name, got.chains, classic.chains)
		}
		if !bytes.Equal(got.store, classic.store) {
			t.Errorf("%s: the store's bytes differ from one process's", name)
		}
	}
}
