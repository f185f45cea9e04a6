package distrib

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/engine"
	"repro/internal/statestore"
	"repro/internal/transport"
	"repro/internal/workload"
)

// storePrint reads what a checkpoint store holds, for two runs to compare: its
// groups, its byte total and, per group, the version, the bytes its chain
// holds and the state — replayed by Materialize, which folds nothing, and
// canonically encoded.
func storePrint(s *statestore.Store) []byte {
	b := codec.AppendUvarint(nil, uint64(s.Bytes()))
	for _, gid := range s.Groups() {
		st, ver, ok := s.Materialize(gid)
		var enc []byte
		if ok {
			enc = st.Encode(nil)
		}
		b = codec.AppendUvarint(b, uint64(gid))
		b = codec.AppendInt64(b, int64(ver))
		b = codec.AppendUvarint(b, uint64(s.Footprint(gid)))
		b = append(codec.AppendUvarint(b, uint64(len(enc))), enc...)
	}
	return b
}

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
// period 2's one 67-byte key is a delta of 89 bytes, exactly the chain's
// bound, which the chain takes; from period 3 on one 8-byte key a period is a
// 30-byte delta, the first of which the chain does not take (its bound is 0
// then), so the tip is written whole, and later ones re-base it again each
// time the deltas would pass half its base.
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
// stats, what the store holds at the end (storePrint), and — read through the
// store between checkpoints — each group's chain bound before checkpoint 2 and
// whether its chain holds deltas after every checkpoint.
type foldRun struct {
	stats  []engine.CheckpointStats
	store  []byte
	bound2 []int
	chains [][]bool
}

// chained reports whether gid's chain holds deltas beside its base. The store
// does not count them, but its footprint tells: a base alone is the encoding
// of the state it holds, and each delta of this job costs more than the cells
// it adds to the state (it repeats the table's name and counts), so a chain
// with deltas holds more bytes than the state it replays to.
func chained(s *statestore.Store, gid int) bool {
	enc, _, _ := s.EncodedState(gid)
	return s.Footprint(gid) > len(enc)
}

// driveFolds checkpoints after every period for 14 periods, and rotates every
// group one node forward before period 7, so the moves ship tips, and with
// them their chains' shapes, that the next checkpoints cut against.
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
			// Checkpoint 1 left each chain a lone base, whose bound is half
			// of it (statestore's Chain.takes).
			for gid := 0; gid < kgs; gid++ {
				r.bound2 = append(r.bound2, e.CheckpointStore().Footprint(gid)/2)
			}
		}
		r.stats = append(r.stats, e.TakeCheckpoint())
		chain := make([]bool, kgs)
		for gid := range chain {
			chain[gid] = chained(e.CheckpointStore(), gid)
		}
		r.chains = append(r.chains, chain)
	}
	r.store = storePrint(e.CheckpointStore())
	return r
}

// TestLayoutsAgreeAcrossFolds: whoever holds a tip writes it whole where its
// chain does not take the delta — at the bound a delta is still recorded, one
// byte past it the chain is re-based — and a tip that moved to another
// process knows its chain as well as one that stayed. Every layout (one
// process, a mem cluster, a mixed one, TCP) takes the same checkpoints with
// the same stats and leaves the same store, through a delta of exactly the
// bound and at least two re-bases of every group's chain.
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
		// Checkpoint 1 wrote the base, so a chain with deltas after checkpoint 2
		// holds exactly its one.
		if got := classic.stats[1].NewBytes / kgs; classic.bound2[gid] != got || !classic.chains[1][gid] {
			t.Fatalf("group %d: checkpoint 2 cut %d B against a bound of %d and left a chain with deltas: %v, want a delta of exactly the bound, recorded", gid, got, classic.bound2[gid], classic.chains[1][gid])
		}
		folds := 0
		for i := 1; i < len(classic.chains); i++ {
			if classic.chains[i-1][gid] && !classic.chains[i][gid] {
				folds++
			}
		}
		if folds < 2 {
			t.Fatalf("group %d: its chain folded %d times, want at least 2 (chains %v)", gid, folds, classic.chains)
		}
	}

	layouts := map[string]func() foldRun{
		"mem": func() foldRun {
			e, stop, err := startMem(spec, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			return driveFolds(t, e, kgs)
		},
		"mixed": func() foldRun {
			mixed := spec
			mixed.NodePeers = []int{0, 1, 2}
			e, stop, err := startMem(mixed, 2, nil)
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
			t.Errorf("%s: chains with deltas %v, one process's %v", name, got.chains, classic.chains)
		}
		if !bytes.Equal(got.store, classic.store) {
			t.Errorf("%s: the store differs from one process's", name)
		}
	}
}
