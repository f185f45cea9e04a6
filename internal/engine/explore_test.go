package engine

// The explorer checks the paper's guarantee as invariants over drawn
// schedules instead of one fixed script per feature: a reconfiguration never
// loses, duplicates or reorders a key's tuples, and where a group runs changes
// only what its tuples cost. Each seed draws a job (src → A → B → sink) and a
// schedule of subset and full rotations to any alive node, checkpoints at a
// drawn cadence (so moves go both whole and by delta) and one scale-in; it
// runs that schedule on a one-node reference and on two of the nine
// configurations ShardsPerNode 1/2/4 × {one process, two mem workers, the
// controller hosting a node beside a worker}, and checks after every period
// and at the end.
//
//	go test ./internal/engine -run TestExplore -explore.seeds 10000
//	go test ./internal/engine -run TestExplore -explore.seed 17 -v

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

var (
	exploreSeeds = flag.Int("explore.seeds", 200, "seeds TestExplore runs (20 under -short)")
	exploreSeed  = flag.Int("explore.seed", -1, "run TestExplore on this seed alone")
)

// exploreConfig is one way to deploy a schedule's job.
type exploreConfig struct {
	spn    int
	layout string // "new": engine.New; "workers": two mem workers; "mixed": node 0 on the controller, the rest on one worker
}

var exploreConfigs = func() []exploreConfig {
	var cs []exploreConfig
	for _, spn := range []int{1, 2, 4} {
		for _, l := range []string{"new", "workers", "mixed"} {
			cs = append(cs, exploreConfig{spn, l})
		}
	}
	return cs
}()

func (c exploreConfig) String() string { return fmt.Sprintf("%s/shards=%d", c.layout, c.spn) }

// peerOf is memCluster's node-to-process map for the layout.
func (c exploreConfig) peerOf(nodes int) []int {
	if c.layout == "new" {
		return nil
	}
	p := make([]int, nodes)
	for i := range p {
		if c.layout == "workers" {
			p[i] = 1 + i%2
		} else if i > 0 {
			p[i] = 1
		}
	}
	return p
}

// exploreStep is what the schedule does at the boundary before one period, in
// this order: checkpoint, terminate the node the last period drained, mark a
// node for removal, stage plan.
type exploreStep struct {
	ckpt      bool
	terminate int // -1 for none
	mark      int // -1 for none
	kind      string
	plan      []int // nil for no plan
	moves     int   // groups plan moves
}

// schedule is one seed's job and reconfigurations.
type schedule struct {
	seed                       int
	nodes, kgsA, kgsB, kgsSink int
	keys                       []string
	input                      [][]int // input[p-1]: the key of each tuple period p emits
	steps                      []exploreStep
	count                      map[string]float64 // tuples per key over the run
	cfgs                       [2]exploreConfig   // the two configurations compared
}

// drawSchedule draws seed's job and schedule. Plans are drawn against the
// allocation the previous plans leave (engine.New's initial one is gid %
// nodes) and send groups only to nodes neither draining nor removed.
func drawSchedule(seed int) *schedule {
	rng := rand.New(rand.NewSource(int64(seed)))
	s := &schedule{
		seed:    seed,
		nodes:   3 + rng.Intn(3),
		kgsA:    1 + rng.Intn(12),
		kgsB:    1 + rng.Intn(12),
		kgsSink: 1 + rng.Intn(4),
		count:   map[string]float64{},
	}
	for i := range 4 + rng.Intn(60) {
		s.keys = append(s.keys, fmt.Sprintf("k%02d", i))
	}
	periods := 5 + rng.Intn(5)
	for range periods {
		in := make([]int, rng.Intn(900))
		for i := range in {
			in[i] = rng.Intn(1 + rng.Intn(len(s.keys))) // skewed toward the first keys
			s.count[s.keys[in[i]]]++
		}
		s.input = append(s.input, in)
	}

	groups := s.kgsA + s.kgsB + s.kgsSink
	alloc := make([]int, groups)
	for g := range alloc {
		alloc[g] = g % s.nodes
	}
	gone := make([]bool, s.nodes) // draining or removed
	target := func(from int) int {
		var to []int
		for n := range s.nodes {
			if !gone[n] && n != from {
				to = append(to, n)
			}
		}
		return to[rng.Intn(len(to))]
	}
	ckptEvery, ckptPhase := rng.Intn(4), rng.Intn(3) // 0: never
	victim := rng.Intn(s.nodes)
	markAt := 1 + rng.Intn(periods-3)
	drainEnd := markAt + rng.Intn(2) // the drain takes one or two boundaries
	moveP := 0.1 + 0.4*rng.Float64()
	for b := range periods {
		st := exploreStep{terminate: -1, mark: -1}
		st.ckpt = ckptEvery > 0 && b%ckptEvery == ckptPhase%ckptEvery
		if b == drainEnd+1 {
			st.terminate = victim
		}
		if b == markAt {
			st.mark = victim
			gone[victim] = true
		}
		plan := slices.Clone(alloc)
		switch r := rng.Intn(20); {
		case r < 7:
			st.kind = "subset"
			for g := range plan {
				if rng.Float64() < moveP {
					plan[g] = target(plan[g])
				}
			}
		case r < 12:
			st.kind = "rotate"
			for g := range plan {
				plan[g] = target(plan[g])
			}
		}
		if b >= markAt && b <= drainEnd {
			st.kind += "+drain"
			for g, n := range plan {
				if n == victim && (b == drainEnd || rng.Intn(2) == 0) {
					plan[g] = target(n)
				}
			}
		}
		for g := range plan {
			if plan[g] != alloc[g] {
				st.moves++
			}
		}
		if st.moves > 0 {
			st.plan, alloc = plan, plan
		}
		s.steps = append(s.steps, st)
	}
	c := rng.Perm(len(exploreConfigs))
	s.cfgs = [2]exploreConfig{exploreConfigs[c[0]], exploreConfigs[c[1]]}
	return s
}

func (s *schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %d nodes, %d keys, groups A %d, B %d, sink %d\n",
		s.seed, s.nodes, len(s.keys), s.kgsA, s.kgsB, s.kgsSink)
	for i, st := range s.steps {
		fmt.Fprintf(&b, "  period %d: %d tuples", i+1, len(s.input[i]))
		if st.ckpt {
			b.WriteString("; checkpoint before")
		}
		if st.terminate >= 0 {
			fmt.Fprintf(&b, "; terminate node %d", st.terminate)
		}
		if st.mark >= 0 {
			fmt.Fprintf(&b, "; mark node %d", st.mark)
		}
		if st.plan != nil {
			fmt.Fprintf(&b, "; %s, %d moves, plan %v", strings.TrimPrefix(st.kind, "+"), st.moves, st.plan)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  run on %s and %s", s.cfgs[0], s.cfgs[1])
	return b.String()
}

// exploreRun is what one run's operators report to the test, from every
// process of its cluster.
type exploreRun struct {
	mu       sync.Mutex
	sink     map[string]float64 // Σ of B's aggregates per key
	lastSeq  map[string]float64
	inverted []string // keys B saw out of seq order
}

// topology builds the job: src tags every tuple with a per-key increasing seq
// and named string and numeric fields; A counts in a counter and a table and
// forwards, half the time its input itself; B checks the seq order, totals
// per key and emits each period's per-key counts from its Flush; the sink adds
// those up in its state and in r.
func (s *schedule) topology(r *exploreRun) func() *Topology {
	return func() *Topology {
		tp := NewTopology()
		tp.AddSource("src", func(period int, emit Emit) {
			seq := 0
			for _, in := range s.input[:period-1] {
				seq += len(in)
			}
			for i, k := range s.input[period-1] {
				seq++
				tu := NewTuple(s.keys[k], int64(seq)).WithStr("tag", s.keys[k%3]).WithNum("seq", float64(seq))
				if i%3 == 0 {
					tu.WithNum("v", float64(i%7))
				}
				emit(tu)
			}
		})
		tp.AddOperator(&Operator{Name: "A", KeyGroups: s.kgsA, Proc: func(tu *Tuple, st *State, emit Emit) {
			st.Add("n", 1)
			st.Table("seen").Add(tu.Key, 1)
			if tu.TS%2 == 0 {
				emit(tu)
				return
			}
			emit(tu.NewTuple(tu.Key, tu.TS).WithStr("tag", tu.Str("tag")).WithNum("seq", tu.Num("seq")))
		}})
		tp.AddOperator(&Operator{
			Name:      "B",
			KeyGroups: s.kgsB,
			Proc: func(tu *Tuple, st *State, emit Emit) {
				r.observe(tu.Key, tu.Num("seq"))
				st.Table("tot").Add(tu.Key, 1)
				st.Table("win").Add(tu.Key, 1)
			},
			Flush: func(kg int, st *State, emit Emit) {
				if w := st.LookupTable("win"); w != nil {
					for k, v := range w.All() {
						emit(NewTuple(k, int64(kg)).WithNum("n", v))
					}
					st.ClearTable("win")
				}
			},
		})
		tp.AddOperator(&Operator{Name: "sink", KeyGroups: s.kgsSink, Proc: func(tu *Tuple, st *State, emit Emit) {
			st.Add("n", tu.Num("n"))
			r.mu.Lock()
			r.sink[strings.Clone(tu.Key)] += tu.Num("n")
			r.mu.Unlock()
		}})
		tp.Connect("src", "A")
		tp.Connect("A", "B")
		tp.Connect("B", "sink")
		return tp
	}
}

func (r *exploreRun) observe(k string, seq float64) {
	r.mu.Lock()
	if seq <= r.lastSeq[k] {
		r.inverted = append(r.inverted, fmt.Sprintf("%s (seq %v after %v)", k, seq, r.lastSeq[k]))
	} else {
		r.lastSeq[strings.Clone(k)] = seq
	}
	r.mu.Unlock()
}

// periodView is a period's statistics as every configuration must report
// them: all of PeriodStats but the frame count and the process-wide
// allocation counters, with the communication matrix as a map.
type periodView struct {
	ps   PeriodStats
	comm map[[2]int]float64
}

func viewOf(ps *PeriodStats) periodView {
	v := *ps
	v.BatchesCrossNode, v.Allocs, v.AllocBytes, v.Comm = 0, 0, 0, nil
	v.GroupUnits = slices.Clone(ps.GroupUnits)
	v.GroupNode = slices.Clone(ps.GroupNode)
	v.StateBytes = slices.Clone(ps.StateBytes)
	v.NodeUnits = slices.Clone(ps.NodeUnits)
	v.CkptDeltaBytes = slices.Clone(ps.CkptDeltaBytes)
	return periodView{v, commEdges(ps.Comm)}
}

// diff names the fields in which v and w differ.
func (v periodView) diff(w periodView) []string {
	var out []string
	a, b := reflect.ValueOf(v.ps), reflect.ValueOf(w.ps)
	for i := range a.NumField() {
		if !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
			out = append(out, fmt.Sprintf("%s %v vs %v", a.Type().Field(i).Name, a.Field(i), b.Field(i)))
		}
	}
	if !reflect.DeepEqual(v.comm, w.comm) {
		out = append(out, "Comm")
	}
	return out
}

// exploreResult is what one run reports for the comparison between
// configurations: every period's statistics, every checkpoint's stats and, at
// the end, what the checkpoint store holds (storePrint; nil without a
// checkpoint).
type exploreResult struct {
	views []periodView
	ckpts []CheckpointStats
	store []byte
}

// run executes s in one configuration, the one-node reference when ref is nil
// (no moves and no scale-in: its one node holds everything), and checks what
// holds within a run: after every period the byte-accounting identity, the
// staged moves and nothing else, no group gained by a draining or removed
// node, a modeled latency when a group with state moved, every tip on the
// shard holding its group's state and, against ref, the tuple counts and the
// state sizes; at the end exact per-key totals at A, B and the sink, and B's
// per-key seq order.
func (s *schedule) run(t *testing.T, cfg exploreConfig, ref []periodView) exploreResult {
	t.Helper()
	r := &exploreRun{sink: map[string]float64{}, lastSeq: map[string]float64{}}
	nodes := s.nodes
	if ref == nil {
		nodes = 1
	}
	c := memCluster(t, s.topology(r), Config{Nodes: nodes, ShardsPerNode: cfg.spn}, cfg.peerOf(nodes))
	defer c.stop()
	e := c.ctrl
	gone := make([]bool, nodes)
	var res exploreResult
	last, lastBytes := e.Allocation(), make([]int, e.topo.NumGroups())
	for i, st := range s.steps {
		p := i + 1
		if st.ckpt {
			res.ckpts = append(res.ckpts, e.TakeCheckpoint())
		}
		if ref != nil {
			if st.terminate >= 0 {
				if err := e.TerminateNode(st.terminate); err != nil {
					t.Fatalf("period %d: %v", p, err)
				}
			}
			if st.mark >= 0 {
				e.MarkForRemoval([]int{st.mark})
				gone[st.mark] = true
			}
			if st.plan != nil {
				if err := e.ApplyPlan(st.plan); err != nil {
					t.Fatalf("period %d: %v", p, err)
				}
			}
		}
		plan := e.Allocation()
		ps, err := e.RunPeriod()
		if err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		v := viewOf(ps)
		res.views = append(res.views, v)
		if ps.BytesCrossNodeIn != ps.BytesCrossNode+ps.SrcBytesCrossNode {
			t.Fatalf("period %d: BytesCrossNodeIn %d, want BytesCrossNode %d + SrcBytesCrossNode %d",
				p, ps.BytesCrossNodeIn, ps.BytesCrossNode, ps.SrcBytesCrossNode)
		}
		if ref == nil {
			continue
		}
		moved, stateful := 0, false
		for gid, n := range ps.GroupNode {
			if n != plan[gid] {
				t.Fatalf("period %d: group %d runs on node %d, the plan put it on %d", p, gid, n, plan[gid])
			}
			if n == last[gid] {
				continue
			}
			moved++
			if gone[n] {
				t.Fatalf("period %d: group %d moved onto draining or removed node %d", p, gid, n)
			}
			stateful = stateful || lastBytes[gid] > 0
		}
		last, lastBytes = v.ps.GroupNode, v.ps.StateBytes
		if ps.Migrations != st.moves || moved != st.moves {
			t.Fatalf("period %d: %d migrations and %d groups moved, %d staged", p, ps.Migrations, moved, st.moves)
		}
		if stateful && ps.MigrationLatency <= 0 {
			t.Fatalf("period %d: groups with state moved, and no migration latency was modeled", p)
		}
		c.checkTips(t, fmt.Sprintf("period %d", p))
		w := ref[i].ps
		if ps.TuplesIn != w.TuplesIn || ps.TuplesOut != w.TuplesOut || !slices.Equal(ps.StateBytes, w.StateBytes) {
			t.Fatalf("period %d: tuples in/out %d/%d and state bytes %v; the reference %d/%d and %v",
				p, ps.TuplesIn, ps.TuplesOut, ps.StateBytes, w.TuplesIn, w.TuplesOut, w.StateBytes)
		}
	}

	if store := e.CheckpointStore(); store != nil {
		res.store = storePrint(store)
	}
	c.quiesce(t)
	got := map[string]map[string]float64{"A": {}, "B": {}}
	var counted, sunk float64
	for _, proc := range c.procs {
		for i, n := range proc.nodes {
			if n == nil || proc.removed[i] {
				continue
			}
			for gid, st := range n.allStates() {
				op, _ := e.topo.OpOf(gid)
				switch e.topo.ops[op].Name {
				case "A":
					counted += st.Num("n")
					for k, v := range st.Table("seen").All() {
						got["A"][k] += v
					}
				case "B":
					for k, v := range st.Table("tot").All() {
						got["B"][k] += v
					}
				case "sink":
					sunk += st.Num("n")
				}
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	got["sink"] = r.sink
	total := 0.0
	for _, k := range s.keys {
		total += s.count[k]
		for _, at := range []string{"A", "B", "sink"} {
			if got[at][k] != s.count[k] {
				t.Errorf("%s counted %v of key %s, the source emitted %v", at, got[at][k], k, s.count[k])
			}
		}
	}
	if counted != total || sunk != total {
		t.Errorf("A's counters sum to %v and the sink's to %v, the source emitted %v", counted, sunk, total)
	}
	if len(r.inverted) > 0 {
		t.Errorf("B saw %d tuples out of order: %v", len(r.inverted), r.inverted)
	}
	return res
}

// TestExplore runs -explore.seeds drawn schedules (or the one -explore.seed
// names), two at a time. Each runs on the one-node reference and on its two
// configurations, whose every period's statistics, every checkpoint's stats
// and final checkpoint store must be equal: a tip that moved to another
// process cuts against the chain the store holds as one that stayed does.
// Over 20 seeds or more, some periods must move groups by delta and some only
// whole.
func TestExplore(t *testing.T) {
	seeds := *exploreSeeds
	if testing.Short() {
		seeds = min(seeds, 20)
	}
	first := 0
	if *exploreSeed >= 0 {
		first, seeds = *exploreSeed, 1
	}
	var byDelta, whole atomic.Int64
	t.Cleanup(func() {
		if seeds >= 20 && (byDelta.Load() == 0 || whole.Load() == 0) {
			t.Errorf("%d periods moved groups by delta and %d only whole: the schedules left a kind of move untested", byDelta.Load(), whole.Load())
		}
	})
	for seed := first; seed < first+seeds; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			t.Parallel()
			s := drawSchedule(seed)
			defer func() {
				if t.Failed() {
					t.Logf("%s\nrerun: go test ./internal/engine -run TestExplore -explore.seed %d -v", s, seed)
				}
			}()
			ref := s.run(t, exploreConfig{spn: 1, layout: "new"}, nil).views
			var res [2]exploreResult
			for i, cfg := range s.cfgs {
				t.Run(cfg.String(), func(t *testing.T) { res[i] = s.run(t, cfg, ref) })
			}
			if t.Failed() {
				return
			}
			if !slices.Equal(res[0].ckpts, res[1].ckpts) {
				t.Fatalf("%s took checkpoints %+v, %s %+v", s.cfgs[0], res[0].ckpts, s.cfgs[1], res[1].ckpts)
			}
			if !bytes.Equal(res[0].store, res[1].store) {
				t.Fatalf("%s and %s leave different checkpoint stores", s.cfgs[0], s.cfgs[1])
			}
			for p, v := range res[0].views {
				if d := v.diff(res[1].views[p]); d != nil {
					t.Fatalf("period %d: %s and %s differ in %s", p+1, s.cfgs[0], s.cfgs[1], strings.Join(d, "; "))
				}
				if v.ps.PrecopyBytes > 0 {
					byDelta.Add(1)
				} else if v.ps.Migrations > 0 {
					whole.Add(1)
				}
			}
		})
	}
}
