package engine

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/statestore"
)

// denseCommGroupLimit is the cut-over between the two communication
// accumulators: topologies with at most this many key groups accumulate
// out(gi, gj) in a flat gid×gid []float64 (one add + one index per tuple on
// the hot path; 362 groups ≈ 1 MB of matrix per shard), larger ones in the
// sparse open-addressed commTable, whose size follows the edges actually
// seen. Each wins on its side: the matrix is faster per tuple while it fits
// in cache, and grows quadratically where the table does not.
const denseCommGroupLimit = 362

// nodeStats is one shard's statistics: written only by its owning shard
// goroutine during a period and read by the engine between periods (the
// completion channel provides the happens-before edge); the engine merges
// the shards of a node at the period barrier, so the hot path takes no
// locks. Two things are read while the shard runs and are atomic for it:
// nodeUnits (heterogeneous PoTC's nodeLoadEstimate reads it from other
// shards' routers, quiesceToward's progress poll from a generator, here and
// through rqProgress) and subMilli, which SubSnapshot reads mid-period.
type nodeStats struct {
	// groupMilli[gid] = cost milli-units attributed to that key group this
	// period (processing + serialization + deserialization). Dense per-gid
	// slices, not maps: these are incremented for every tuple on the hot
	// path. Integer milli-units, not float64: period merges sum shard (and,
	// distributed, per-process) contributions in whatever order they arrive,
	// and integer addition is order-independent where float addition is not —
	// the in-memory and TCP runs must produce bit-identical PeriodStats.
	groupMilli []int64
	// groupTuplesIn / Out count tuples per key group.
	groupTuplesIn  []int64
	groupTuplesOut []int64
	// Communication matrix: tuples sent from key group `from` to key group
	// `to`. Exactly one of the two representations is active — commDense
	// (flat, indexed from*numGroups+to) for small topologies, commSparse
	// (open-addressed counting table, see commtable.go) otherwise.
	commSparse *commTable
	commDense  []float64
	numGroups  int
	// bytesOut / bytesIn count serialized bytes crossing node boundaries.
	bytesOut, bytesIn int64
	// batchesOut counts cross-node frames shipped (each amortizing one
	// allocation and one mailbox lock over its tuples).
	batchesOut int64
	// migMilli is the CPU spent serializing/deserializing migrated state, in
	// milli-units. It counts toward node load (the paper's load-index
	// measurements include migration overhead — COLA's weakness) but not
	// toward any key group's gLoad, so planning inputs stay steady-state.
	migMilli int64
	// unitsMilli is Σ groupMilli + migMilli, kept by the owning shard for
	// every tuple; nodeUnits is its published copy for concurrent readers. The
	// shard publishes after every data frame, with every state it serializes
	// or adopts, after a replay and before it reports a barrier wave complete:
	// a reader is at most one frame behind a running shard and exact on a
	// parked one. Like the rest, unitsMilli is the engine's again once the
	// shard has reported its last completion, so nothing publishes after that.
	unitsMilli int64
	nodeUnits  atomic.Int64
	// subMilli, when non-nil, is this shard's per-gid milli-unit matrix
	// behind Engine.SubSnapshot: every addUnits also lands here so partial
	// per-group loads are readable mid-period from any goroutine
	// (SubSnapshot sums the shards). nil unless the engine runs with
	// Config.SubPeriods >= 2 — the extra atomic add per tuple is only paid
	// when reactive reconfiguration is on.
	subMilli []atomic.Int64
}

// newNodeStats builds one shard's statistics, choosing the communication
// accumulator by the group count (see denseCommGroupLimit).
func newNodeStats(numGroups int, subPeriods bool) *nodeStats {
	s := &nodeStats{
		groupMilli:     make([]int64, numGroups),
		groupTuplesIn:  make([]int64, numGroups),
		groupTuplesOut: make([]int64, numGroups),
		numGroups:      numGroups,
	}
	if subPeriods {
		s.subMilli = make([]atomic.Int64, numGroups)
	}
	s.initComm(numGroups <= denseCommGroupLimit)
	return s
}

// initComm allocates the communication accumulator: the dense matrix or the
// sparse table.
func (s *nodeStats) initComm(dense bool) {
	if dense {
		s.commDense = make([]float64, s.numGroups*s.numGroups)
		return
	}
	s.commSparse = &commTable{}
	s.commSparse.init(commTableMinBuckets)
}

// addComm records one tuple flowing from key group `from` to `to`.
func (s *nodeStats) addComm(from, to int) {
	if s.commDense != nil {
		s.commDense[from*s.numGroups+to]++
		return
	}
	s.commSparse.add(from, to)
}

// forEachComm visits every non-zero communication edge recorded this period.
func (s *nodeStats) forEachComm(fn func(from, to int, rate float64)) {
	if s.commDense != nil {
		ng := s.numGroups
		for i, v := range s.commDense {
			if v != 0 {
				fn(i/ng, i%ng, v)
			}
		}
		return
	}
	s.commSparse.forEach(fn)
}

func (s *nodeStats) addUnits(gid int, units float64) {
	m := int64(units * 1000)
	s.groupMilli[gid] += m
	s.unitsMilli += m
	if s.subMilli != nil {
		s.subMilli[gid].Add(m)
	}
}

// addMigUnits charges state (de)serialization to the node, not to a group.
// It is paid once per moved state, so it publishes at once: a progress poll
// counts a move as soon as it is paid.
func (s *nodeStats) addMigUnits(units float64) {
	m := int64(units * 1000)
	s.migMilli += m
	s.unitsMilli += m
	s.publishUnits()
}

// publishUnits makes the units burned so far visible to concurrent readers.
func (s *nodeStats) publishUnits() { s.nodeUnits.Store(s.unitsMilli) }

func (s *nodeStats) reset() {
	clear(s.groupMilli)
	clear(s.groupTuplesIn)
	clear(s.groupTuplesOut)
	if s.commDense != nil {
		clear(s.commDense)
	} else {
		s.commSparse.reset()
	}
	s.bytesOut, s.bytesIn = 0, 0
	s.batchesOut = 0
	s.migMilli = 0
	s.unitsMilli = 0
	s.nodeUnits.Store(0)
	for i := range s.subMilli {
		s.subMilli[i].Store(0)
	}
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
	// shards' dense/sparse accumulators into one immutable CSR at the period
	// barrier. Snapshots share it without copying; ToMap() materializes the
	// legacy map form for comparisons.
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
	// Migrations includes HotMoves.
	Migrations       int
	MigrationLatency float64
	// HotMoves counts the reactive sub-period migrations executed inside
	// this period (they did not wait for the period barrier).
	HotMoves int
	// MigratedDeltaBytes is the synchronously-transferred volume of this
	// period's checkpoint-assisted migrations: only the delta since the
	// pre-copied checkpoint. It is the part of the migrated volume above
	// that the delta-transfer path kept small (full-state migrations
	// contribute to MigrationLatency's byte count but not here).
	MigratedDeltaBytes int64
	// PrecopyBytes is the checkpoint volume background-copied toward
	// migration destinations at this period's start (bounded per group by
	// Config.PrecopyChunkBytes; never charged to MigrationLatency).
	PrecopyBytes int64
	// DeferredMoves counts staged migrations that did not execute this
	// period because their checkpoint pre-copy is still in flight.
	DeferredMoves int
	// CkptDeltaBytes is, per global key-group id, the encoded delta between
	// the group's live state at period end and its last checkpoint (-1 for
	// groups without a checkpoint; nil when the engine has never
	// checkpointed). It feeds the planner's delta-cost model. The slice is
	// the engine's barrier scratch: valid until the next period's barrier,
	// copy it to keep it longer.
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

// shardRef names one live shard for the period-barrier merge.
type shardRef struct {
	node int
	sh   *shard
}

// mergeAcc holds one process's period statistics at the barrier: the fold of
// its hosted shards, to which the controller adds each worker's (addReply).
// While the fold runs on several workers each folds into an accumulator of its
// own, because groupMilli is NOT shard-disjoint (a hot-moved group burns cost
// on two shards in one period); the partials then add up in worker order.
// Integer milli-units keep the result independent of split, schedule and of
// which process measured which shard — the exact in-memory-vs-TCP equality.
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
func (a *mergeAcc) fold(r shardRef, commAdd func(from, to int, rate float64)) {
	sh := r.sh
	a.nodeMilli[r.node] += sh.stats.migMilli
	for gid, m := range sh.stats.groupMilli {
		a.groupMilli[gid] += m
		a.nodeMilli[r.node] += m
	}
	for _, c := range sh.stats.groupTuplesIn {
		a.tuplesIn += c
	}
	for _, c := range sh.stats.groupTuplesOut {
		a.tuplesOut += c
	}
	sh.stats.forEachComm(commAdd)
	a.bytesOut += sh.stats.bytesOut
	a.bytesIn += sh.stats.bytesIn
	a.batchesOut += sh.stats.batchesOut
}

func (a *mergeAcc) add(b *mergeAcc) {
	for gid, m := range b.groupMilli {
		a.groupMilli[gid] += m
	}
	for i, m := range b.nodeMilli {
		a.nodeMilli[i] += m
	}
	a.tuplesIn += b.tuplesIn
	a.tuplesOut += b.tuplesOut
	a.bytesOut += b.bytesOut
	a.bytesIn += b.bytesIn
	a.batchesOut += b.batchesOut
}

// barrierWorkers is the width of the pool the period barrier spreads n
// independent pieces of work over: one worker per core, never more than
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
	gid, node   int
	sh          *shard
	st          *State
	tip         *statestore.Tip
	size, delta int
}

// localGroups lists every key group hosted by a live node of this process,
// in ascending gid (a group lives on exactly one shard at the barrier). The
// result is valid until the next call.
func (e *Engine) localGroups() []liveGroup {
	groups := e.liveGroups[:0]
	for i, n := range e.nodes {
		if n == nil || e.removed[i] {
			continue
		}
		for _, sh := range n.shards {
			for gid, st := range sh.states {
				if st != nil {
					groups = append(groups, liveGroup{gid: gid, node: i, sh: sh, st: st, tip: sh.tips[gid], delta: -1})
				}
			}
		}
	}
	slices.SortFunc(groups, func(a, b liveGroup) int { return a.gid - b.gid })
	e.liveGroups = groups
	return groups
}

// foldLocal is the barrier fold, the same in every process: it folds every
// live hosted shard's period statistics into one accumulator, hands their
// communication edges to commAdd (the controller's CommBuilder, a worker's
// reply encoder), and sizes every hosted group that has a checkpoint tip
// against it — the synchronous cost a checkpoint-assisted move of the group
// would pay right now, which a checkpoint cut at the same barrier (version)
// takes as it is (statestore.Tip.Measure). finishPeriod runs it for the
// controller's own nodes and adds what each worker's rqStats handler made of
// the same call. Shards are quiescent here. The shard fold fans across the
// barrier pool when there are enough shards and cores to matter, the sizing
// always (a group's state, tip and slot are its own); all sums are integer
// milli-units and the edges are unit counts summed by the builder, so the
// result is bit-identical to the serial fold whatever the worker count or
// schedule.
func (e *Engine) foldLocal(version int, commAdd func(from, to int, rate float64)) (*mergeAcc, []liveGroup) {
	refs := e.shardRefs[:0]
	for i, n := range e.nodes {
		if n == nil || e.removed[i] {
			continue
		}
		for _, sh := range n.shards {
			refs = append(refs, shardRef{node: i, sh: sh})
		}
	}
	e.shardRefs = refs
	w := barrierWorkers(len(refs))
	if len(refs) < 4 {
		w = 1
	}
	for len(e.mergeAccs) < w {
		e.mergeAccs = append(e.mergeAccs, &mergeAcc{})
	}
	ng := e.topo.NumGroups()
	for k := 0; k < w; k++ {
		e.mergeAccs[k].reset(ng, len(e.nodes))
	}
	// The comm fold's dominant cost is scanning each shard's accumulator for
	// non-zero edges; that scan stays parallel and only the per-edge add
	// serializes on the mutex.
	add := commAdd
	if w > 1 {
		var commMu sync.Mutex
		add = func(from, to int, rate float64) {
			commMu.Lock()
			commAdd(from, to, rate)
			commMu.Unlock()
		}
	}
	fanOut(w, len(refs), func(k, r int) {
		e.mergeAccs[k].fold(refs[r], add)
	})
	acc := e.mergeAccs[0]
	for k := 1; k < w; k++ {
		acc.add(e.mergeAccs[k])
	}
	groups := e.localGroups()
	fanOut(barrierWorkers(len(groups)), len(groups), func(_, i int) {
		g := &groups[i]
		g.size = g.st.Size()
		if g.tip != nil {
			g.delta = g.tip.Measure(version, g.st)
		}
	})
	return acc, groups
}
