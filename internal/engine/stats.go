package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/statestore"
)

// nodeStats is one shard's statistics: written only by its owning shard
// goroutine during a period and read by the engine between periods (the
// completion channel provides the happens-before edge); the engine merges
// the shards of a node at the period barrier, so the hot path takes no
// locks. Nothing is read while the shard runs: a PoTC sender decides from
// its own counters (shard.potcSent), not from another shard's statistics.
type nodeStats struct {
	// groupMilli[gid] = cost milli-units attributed to that key group this
	// period (processing + serialization + deserialization). Dense per-gid
	// slices, not maps: these are incremented for every tuple on the hot
	// path. Integer milli-units, not float64: period merges sum shard (and,
	// distributed, per-process) contributions in whatever order they arrive,
	// and integer addition is order-independent where float addition is not —
	// the in-memory and TCP runs must produce bit-identical PeriodStats.
	groupMilli []int64
	// tuplesIn / tuplesOut count the tuples this shard processed and emitted.
	tuplesIn, tuplesOut int64
	// comm is the communication matrix: tuples sent from key group `from` to
	// key group `to`, in an open-addressed counting table (commtable.go) that
	// holds only the edges this period touched.
	comm commTable
	// bytesOut / bytesIn count serialized bytes crossing node boundaries.
	bytesOut, bytesIn int64
	// batchesOut counts cross-node frames shipped (each amortizing one
	// allocation and one mailbox lock over its tuples).
	batchesOut int64
	// unitsMilli is the shard's whole cost this period in milli-units: Σ
	// groupMilli plus the CPU spent serializing/deserializing migrated state,
	// which counts toward node load (the paper's load-index measurements
	// include migration overhead — COLA's weakness) but not toward any key
	// group's gLoad, so planning inputs stay steady-state.
	unitsMilli int64
	// The shards' statistics are allocated one after another, and each shard
	// writes unitsMilli for every tuple while its neighbour works on the
	// fields at the front of its own: a cache line of padding keeps the two
	// off one line.
	_ [64]byte
}

// newNodeStats builds one shard's statistics.
func newNodeStats(numGroups int) *nodeStats {
	s := &nodeStats{groupMilli: make([]int64, numGroups)}
	s.comm.init(commTableMinBuckets)
	return s
}

func (s *nodeStats) addUnits(gid int, units float64) {
	m := int64(units * 1000)
	s.groupMilli[gid] += m
	s.unitsMilli += m
}

// addMigUnits charges state (de)serialization to the node, not to a group.
func (s *nodeStats) addMigUnits(units float64) { s.unitsMilli += int64(units * 1000) }

func (s *nodeStats) reset() {
	clear(s.groupMilli)
	s.tuplesIn, s.tuplesOut = 0, 0
	s.comm.reset()
	s.bytesOut, s.bytesIn = 0, 0
	s.batchesOut = 0
	s.unitsMilli = 0
}

// PeriodStats is the merged, engine-level view of one period.
type PeriodStats struct {
	Period int
	// GroupUnits / GroupNode per global key-group id.
	GroupUnits []float64
	GroupNode  []int
	// StateBytes is |σ_k| measured at period end.
	StateBytes []int
	// Comm is the out(gi, gj) matrix (tuples this period), merged from the
	// shards' counting tables into one immutable CSR at the period barrier.
	// Snapshots share it without copying.
	Comm *core.CommCSR
	// NodeUnits per engine node id (includes removed slots as 0).
	NodeUnits []float64
	// TuplesIn / TuplesOut totals.
	TuplesIn, TuplesOut int64
	// BytesCrossNode is the serialized volume worker nodes sent to other
	// nodes (sum of per-record wire lengths measured at stage time).
	BytesCrossNode int64
	// SrcBytesCrossNode is the wire volume the sources staged toward worker
	// nodes (measured identically, at stage time).
	SrcBytesCrossNode int64
	// BytesCrossNodeIn is the receiver-measured wire volume (sum of decoded
	// record lengths). Under wire format v2 the per-record length is byte-
	// identical on both sides, so BytesCrossNodeIn always equals
	// BytesCrossNode + SrcBytesCrossNode — the invariant that keeps the
	// out(gi,gj) serialization cost model exact; tests assert it.
	BytesCrossNodeIn int64
	// BatchesCrossNode is the number of cross-node frames those bytes rode
	// in (sources included); BytesCrossNode/BatchesCrossNode is the realized
	// amortization of the batched data path.
	BatchesCrossNode int64
	// Migrations performed when entering this period, and their modeled
	// latency (seconds of paused processing, Σ over migrated groups).
	Migrations       int
	MigrationLatency float64
	// MigratedDeltaBytes is the synchronously-transferred volume of this
	// period's checkpoint-assisted migrations: only the delta since the
	// checkpoint they ship as their base. It is the part of the migrated
	// volume above that the delta-transfer path kept small (full-state
	// migrations contribute to MigrationLatency's byte count but not here).
	MigratedDeltaBytes int64
	// PrecopyBytes is the checkpoint volume those migrations shipped as their
	// base: the tip sizes of the groups that moved by delta (never charged to
	// MigrationLatency).
	PrecopyBytes int64
	// DeferredMoves is always 0: every staged move runs at the boundary that
	// stages it. It stays for readers that still print it.
	DeferredMoves int
	// CkptDeltaBytes is, per global key-group id, the encoded delta between
	// the group's live state at period end and its last checkpoint (-1 for
	// groups without a checkpoint; nil when the engine has never
	// checkpointed). It feeds the planner's delta-cost model. The slice is
	// the engine's read scratch: valid until the engine next reads the
	// cluster (the next period barrier), copy it to keep
	// it longer.
	CkptDeltaBytes []int
	// Allocs / AllocBytes are the heap allocations (objects / bytes) this
	// process performed between the previous period barrier and this one,
	// sampled via runtime/metrics deltas off the hot path. They make the
	// allocation budget an observable, regression-gated metric like
	// tuples/s. Zero for the first period (no previous barrier to diff
	// against); process-wide, so excluded from cross-run equivalence
	// comparisons.
	Allocs, AllocBytes uint64
}

// LoadPercent converts cost units to percentage points of node capacity.
func (e *Engine) loadPercent(units float64) float64 {
	return 100 * units / e.capacity
}

// mergeAcc holds one process's period statistics at the barrier: the fold of
// its hosted shards, to which the controller adds each worker's (addReply).
// Integer milli-units keep the result independent of fold order and of which
// process measured which shard — the exact in-memory-vs-TCP equality.
type mergeAcc struct {
	groupMilli []int64
	nodeMilli  []int64
	tuplesIn   int64
	tuplesOut  int64
	bytesOut   int64
	bytesIn    int64
	batchesOut int64
}

func (a *mergeAcc) reset(numGroups, numNodes int) {
	if cap(a.groupMilli) < numGroups {
		a.groupMilli = make([]int64, numGroups)
	}
	a.groupMilli = a.groupMilli[:numGroups]
	clear(a.groupMilli)
	if cap(a.nodeMilli) < numNodes {
		a.nodeMilli = make([]int64, numNodes)
	}
	a.nodeMilli = a.nodeMilli[:numNodes]
	clear(a.nodeMilli)
	a.tuplesIn, a.tuplesOut = 0, 0
	a.bytesOut, a.bytesIn, a.batchesOut = 0, 0, 0
}

// fold accumulates one quiescent shard.
func (a *mergeAcc) fold(sh *shard, commAdd func(from, to int, rate float64)) {
	st := sh.stats
	for gid, m := range st.groupMilli {
		a.groupMilli[gid] += m
	}
	a.nodeMilli[sh.nid] += st.unitsMilli
	st.comm.forEach(commAdd)
	a.tuplesIn += st.tuplesIn
	a.tuplesOut += st.tuplesOut
	a.bytesOut += st.bytesOut
	a.bytesIn += st.bytesIn
	a.batchesOut += st.batchesOut
}

// barrierWorkers is the width of the pool a checkpoint's cut and write spread
// n independent pieces of work over: one worker per core, never more than
// there are pieces.
func barrierWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// fanOut runs fn(worker, i) for every i in [0, n) on `workers` goroutines and
// returns when all are done. Each worker claims the next unclaimed index, so
// uneven pieces balance; whatever fn keeps per worker (scratch, partial sums)
// must not make the result depend on which worker ran which index. With one
// worker it runs inline.
func fanOut(workers, n int, fn func(worker, i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// liveGroup is one key group where it physically lives in this process: its
// state, its checkpoint tip (nil without one) and, once foldLocal has sized
// them, |σ| and the encoded delta between the two (-1 without a tip).
type liveGroup struct {
	gid         int
	sh          *shard
	st          *State
	tip         *statestore.Tip
	size, delta int
}

// localGroups lists every key group hosted by a live node of this process, in
// shard order (a group lives on exactly one shard at the barrier). The result
// is valid until the next call.
func (e *Engine) localGroups() []liveGroup {
	groups := e.liveGroups[:0]
	for sh := range e.localShards {
		for gid, st := range sh.states {
			if st != nil {
				groups = append(groups, liveGroup{gid: gid, sh: sh, st: st, tip: sh.tips[gid], delta: -1})
			}
		}
	}
	e.liveGroups = groups
	return groups
}

// foldLocal is the barrier fold, the same in every process: it folds every
// live hosted shard's period statistics into one accumulator, hands their
// communication edges to commAdd (the controller's CommBuilder, a worker's
// reply encoder), and sizes every hosted group that has a checkpoint tip
// against it — the synchronous cost a checkpoint-assisted move of the group
// would pay right now, which a checkpoint cut at the same barrier (version)
// takes as it is (statestore.Tip.Measure). readStats runs it for the
// controller's own nodes and adds what each worker's rqStats handler made of
// the same call. Shards are quiescent here, and each is read once, on the
// calling goroutine, and so is every group: a tip reads only the cells its
// state took since the last reading, which costs less than handing the groups
// to a pool. All sums are integer milli-units and the edges are unit counts
// that commAdd sums, so the result does not depend on the order the shards
// are read in.
func (e *Engine) foldLocal(version int, commAdd func(from, to int, rate float64)) (*mergeAcc, []liveGroup) {
	acc := &e.acc
	acc.reset(e.topo.NumGroups(), len(e.nodes))
	for sh := range e.localShards {
		acc.fold(sh, commAdd)
	}
	groups := e.localGroups()
	for i := range groups {
		g := &groups[i]
		g.size = g.st.Size()
		if g.tip != nil {
			g.delta = g.tip.Measure(version, g.st)
		}
	}
	return acc, groups
}
