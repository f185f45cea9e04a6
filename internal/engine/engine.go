package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"sync"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/statestore"
)

// The simulated cost model's rates. All costs are in abstract "cost units";
// a node of weight 1 is 100% loaded when it spends Engine.capacity units in
// one period.
const (
	// serCostPerByte / deserCostPerByte model the CPU cost of moving a tuple
	// across nodes — the overhead collocation eliminates. They are calibrated
	// to the paper's regime at the granularity that matters, the tuple: the
	// wire format packs the paper-job tuples ~1.24× denser than the format
	// the original 0.02 belonged to, so the per-byte rate is scaled up to
	// keep the modeled per-tuple serialization share unchanged.
	serCostPerByte   = 0.025
	deserCostPerByte = 0.025
	// migrSecondsPerByte converts migrated state volume to modeled pause
	// latency (Figure 9's metric): ≈ 2.5 s for a ~1.2 kB state, matching the
	// paper's observation.
	migrSecondsPerByte = 0.002
)

// Config sizes the engine and its state-transfer and parallelism options.
type Config struct {
	// Nodes is the initial worker count.
	Nodes int
	// CapacityWeights makes the cluster heterogeneous (Section 4.3.1,
	// "Extending to Heterogeneous Nodes"): node i is 100% loaded at
	// CapacityWeights[i] times the cost units of a weight-1 node. nil means
	// homogeneous; nodes added later via AddNodes get weight 1.
	CapacityWeights []float64
	// SubPeriods splits each statistics period into this many sub-intervals
	// for reactive reconfiguration (see subperiod.go): the engine maintains
	// mid-period load counters (SubSnapshot) and invokes the sub-period
	// observer at every sub-interval boundary, where restricted hot moves
	// may apply without waiting for the period barrier. Values < 2 disable
	// the reactive layer (and its per-tuple atomic counter cost) entirely.
	SubPeriods int
	// PrecopyChunkBytes bounds the checkpoint bytes pre-copied per group at
	// each period boundary (default 256 KiB), so background state transfer
	// consumes bounded bandwidth per period: a checkpoint larger than the
	// chunk spans multiple period boundaries, with the move deferred until
	// the pre-copy completes. Negative means unlimited (the whole
	// checkpoint ships at one boundary).
	PrecopyChunkBytes int
	// ShardsPerNode splits every node's execution into this many
	// hash-partitioned worker shards, each with its own mailbox-drain
	// goroutine, outbox set and statistics (see node.go) — cores within a
	// node become virtual shared-nothing nodes, so the data path scales with
	// GOMAXPROCS while planning, host sets and the cost model stay strictly
	// node-level (intra-node shard-to-shard frames are modeled as free local
	// traffic). 0 or 1 keeps the single-goroutine node of earlier versions;
	// values above 256 are capped.
	ShardsPerNode int
	// GenWorkers partitions each source's per-period emission across this
	// many generators (see gen.go): generator 0 is the period's generation
	// goroutine, the others are goroutines it spawns for the period. Each
	// generator is a distinct sender with its own per-(dest, op) outbox set,
	// scratch buffer and byte/batch counters, so the per-sender FIFO invariant
	// holds per generator; sub-period boundaries are safe-point rendezvous
	// across the generators. Sources opt in via Topology.AddSourceParts — a
	// source without a split hook runs whole on generator 0. 0 means 1; values
	// above 64 are capped.
	GenWorkers int
}

func (c *Config) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.PrecopyChunkBytes == 0 {
		c.PrecopyChunkBytes = 256 << 10
	}
	if c.ShardsPerNode <= 0 {
		c.ShardsPerNode = 1
	}
	if c.ShardsPerNode > 256 {
		c.ShardsPerNode = 256
	}
	if c.GenWorkers <= 0 {
		c.GenWorkers = 1
	}
	if c.GenWorkers > 64 {
		c.GenWorkers = 64
	}
}

// Engine executes a topology over a set of worker-node goroutines, one
// period (SPL) at a time, under the control of an adaptation loop — either
// the lockstep RunPeriod or the continuous Run driver that an
// internal/controller instance feeds.
type Engine struct {
	topo *Topology
	cfg  Config

	nodes   []*node
	removed []bool    // node terminated (scale-in completed)
	killed  []bool    // node marked for removal (draining)
	weights []float64 // per-node capacity weights (heterogeneity)
	// capacity is the cost units a weight-1 node spends per period at 100%
	// load: 1000 until CalibrateCapacity rescales it (guarded by mu).
	capacity float64
	// invWeights caches 1/weights for the per-tuple PoTC routing hot path.
	invWeights []float64
	// hetero is true when any capacity weight differs from 1; the
	// homogeneous PoTC fast path skips the normalization entirely.
	hetero bool
	// commBuilder is the reusable staging area for the period-barrier merge
	// of the shards' communication accumulators into a core.CommCSR.
	commBuilder core.CommBuilder

	// mu guards the allocation state (groupNode, baseAlloc) so that
	// ApplyPlan may be invoked while a period is in flight: an asynchronous
	// controller can stage a plan the moment its planner finishes, and the
	// staged diff is picked up at the next period boundary. Hot moves
	// (sub-period migrations) update groupNode under the same lock.
	mu        sync.Mutex
	groupNode []int // authoritative target allocation (gid -> node)
	baseAlloc []int // allocation physically in place (last period's end)

	// spn is Config.ShardsPerNode after defaults; shardIdx[gid] is the shard
	// index (within whichever node hosts it) that owns global group gid.
	// Ownership is a pure hash of the gid, so it is identical on every node:
	// a group that migrates lands on the same shard index at its new host,
	// and any sender can address "the owning shard of gid on node n" without
	// coordination. Both are immutable after New.
	spn      int
	shardIdx []uint8
	// subObserver is the sub-period boundary hook (guarded by mu; captured
	// once per period into the periodRun).
	subObserver SubObserver
	// lastSrcTuples / lastTotalMilli are the previous period's source-tuple
	// volume and total burned cost (milli-units); the current period's
	// sub-interval boundaries and their processing-progress targets are
	// calibrated from them.
	lastSrcTuples  int64
	lastTotalMilli int64

	// ckpt is the incremental checkpoint store (nil until the first
	// TakeCheckpoint): the log of what the tip-holding shards of every process
	// wrote. precopy tracks in-flight checkpoint pre-copies. Both are owned by
	// the engine goroutine between periods.
	ckpt    *statestore.Store
	precopy map[int]*precopySession
	// ckptDeltas is the planner's residency signal: per gid, the encoded
	// delta between live state and last checkpoint (-1 = no checkpoint;
	// nil until the first checkpoint). Guarded by mu (Snapshot reads it
	// concurrently); refreshed at every finishPeriod and — so a plan made
	// right after a cadence checkpoint prices against the fresh checkpoint,
	// not the previous one — reset at TakeCheckpoint.
	ckptDeltas []int

	events chan engEvent
	period int

	last *PeriodStats

	// Layout (see distributed.go): self is this process's peer id (0 =
	// controller), peerOf maps node slot -> hosting peer, rig is the transport
	// attachment. e.nodes holds nil for slots hosted by other processes; New
	// maps every slot to peer 0.
	self   int
	peerOf []int
	rig    *netRig

	// tipNode is the controller's record of which node's shard holds each key
	// group's checkpoint tip (-1 = none; nil until the first checkpoint is
	// cut) — in this process or another — and tipVer and tipSize are the tip's
	// version and encoded size, which a pre-copy copies. A tip is only ever
	// held where the group physically lives. They are maintained by
	// TakeCheckpoint (the cut puts the tip where the group is), migrations (a
	// full-state move drops the tip; a delta move carries it — the destination
	// keeps the pre-copied base), Recover (the restored state is the tip) and
	// FailNode — never when a write is recorded, which may be after a move.
	tipNode, tipVer, tipSize []int

	// Checkpoint scratch, reused across barriers and cadences: liveGroups is
	// the gid-ordered list of locally hosted states that the delta sizing and
	// cutCheckpoint fan out over, and freshScratch the gids checkpointed this
	// cadence.
	liveGroups   []liveGroup
	freshScratch []int
	// write is the last checkpoint's write, which runs beside the next period
	// in every process; on the controller the store records it, and what the
	// workers' writes sent, when joinCheckpoint joins it, before anything reads
	// the store. Owned by the engine goroutine (a worker's dispatch loop).
	write ckptWrite
	// ckptErrs holds what went wrong in checkpoints taken since the last
	// period (a worker's reply or an entry of it did not decode or check out).
	// TakeCheckpoint has no error to return and runs between periods, where
	// beginPeriod discards queued events, so the failures wait here and fail
	// the next period.
	ckptErrs []error
	// Allocation telemetry: finishPeriod samples the runtime's cumulative
	// heap-allocation counters at each period barrier and reports the
	// barrier-to-barrier delta in PeriodStats.Allocs/AllocBytes. Sampling is
	// two runtime/metrics reads per period — nothing on the hot path.
	allocSamples   [2]metrics.Sample
	prevAllocObjs  uint64
	prevAllocBytes uint64
	allocSampled   bool

	// genStates holds each generator worker's reusable emission scratch
	// (outbox set, encode buffer, counters) so steady-state generation is
	// allocation-flat; see gen.go. Grown on first use, reused every period.
	// genJoin is where generate waits for the period's generators.
	genStates []*genState
	genJoin   sync.WaitGroup
	// Period-barrier scratch, reused so the merge itself stays out of the
	// Allocs telemetry it feeds: shardRefs flattens the live shards for the
	// parallel stats fold, mergeAccs holds the per-fold-worker partial sums
	// (the first is the process's accumulator; see foldLocal), ckptDeltaBuf
	// backs PeriodStats.CkptDeltaBytes, and transferDest is finishPeriod's
	// staged-delta destination map (built only on periods that actually
	// migrate).
	shardRefs    []shardRef
	mergeAccs    []*mergeAcc
	ckptDeltaBuf []int
	transferDest map[int]int
}

// mix64 is the splitmix64 finalizer — a cheap, well-distributed integer hash
// for the gid → shard split.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// gsidFor returns the global shard id of the shard owning gid on nodeID.
func (e *Engine) gsidFor(nodeID, gid int) int {
	return nodeID*e.spn + int(e.shardIdx[gid])
}

// shardAt resolves a global shard id.
func (e *Engine) shardAt(gsid int) *shard {
	return e.nodes[gsid/e.spn].shards[gsid%e.spn]
}

// shardFor returns the shard owning gid on nodeID.
func (e *Engine) shardFor(nodeID, gid int) *shard {
	return e.nodes[nodeID].shards[e.shardIdx[gid]]
}

// NumNodes returns the engine's node-slot count (including removed slots).
func (e *Engine) NumNodes() int { return len(e.nodes) }

// Allocation returns a copy of the current target key-group allocation.
func (e *Engine) Allocation() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.groupNode...)
}

// Period returns the number of completed periods.
func (e *Engine) Period() int { return e.period }

// nodeLoadEstimate returns the node's running load this period relative to
// its capacity weight (for PoTC two-choice routing on heterogeneous
// clusters: a node with twice the weight at the same raw cost units is only
// half as loaded). Removed nodes report +inf.
func (e *Engine) nodeLoadEstimate(id int) float64 {
	if e.removed[id] {
		return math.Inf(1)
	}
	if e.nodes[id] == nil {
		// Remote node: its live counters are not visible here. Reporting 0
		// biases PoTC ties toward remote hosts; the homogeneous fast path
		// (every equivalence-tested configuration) never reads this.
		return 0
	}
	total := int64(0)
	for _, sh := range e.nodes[id].shards {
		total += sh.stats.nodeUnits.Load()
	}
	return float64(total) / 1000 * e.invWeights[id]
}

// periodRun carries one period's coordination state across the
// begin/generate/finish phases.
type periodRun struct {
	period int
	rt     *routerTable
	// alloc is the allocation this period physically installs (the router
	// table's view, updated in place by hot moves) — the diff base for the
	// next period's migrations, even if ApplyPlan re-targets groupNode
	// while the period is in flight.
	alloc []int
	// staged lists the migrations this period executes; transfers carries
	// the same moves with their transfer mode (full vs checkpoint-assisted
	// delta). Moves deferred behind an incomplete pre-copy appear in
	// neither (they re-surface in the staged diff at the next boundary).
	staged              []core.Move
	transfers           []stagedTransfer
	deferred            int
	precopyBytes        int64
	expectedCompletions int
	synthetic           []bool
	srcBatches          int64
	srcBytes            int64 // wire bytes the sources staged (per-record sum)
	errs                []error
	// armFailed marks an arm phase that lost a shard (closed mailbox or an
	// error event instead of an ack): the period is aborted before any data
	// flows and the errors surface from RunPeriod/Run. The engine's shards
	// may be armed inconsistently afterwards — callers must Close (or
	// recover via the checkpoint path) rather than run further periods.
	armFailed bool

	// Reactive sub-period state (see subperiod.go). Generators read these
	// fields; whoever writes them does so while every generator is parked or
	// has joined — genCoord's single-threaded boundary region, the control
	// goroutine between a boundary's hand-over on segment and its answer on
	// resume — and finishPeriod reads them only after synchronizing on the
	// generation result.
	subObserver SubObserver
	subIdx      int   // sub-intervals completed (1-based once running)
	subPerSub   int64 // source tuples per sub-interval (0: no boundaries)
	srcEmitted  int64
	stagedGids  map[int]bool // gids in a staged period-boundary migration
	hotMoved    map[int]bool // gids already hot-moved this period
	hotMoves    int
	// segment is where the generator running a sub-period boundary hands the
	// boundary's validated moves to the control goroutine, once its non-final
	// barrier wave is out; it then waits on resume, which delivers one value
	// when the next segment is armed. done is closed when finishPeriod returns:
	// a generator waits on neither channel once the period is over, opens no
	// further boundary and drops what its sources still emit (over, flushGen),
	// so it ends soon after a period that failed.
	segment chan []core.Move
	resume  chan struct{}
	done    chan struct{}
}

// over reports whether the period's control goroutine has returned; before
// the final barrier wave is out that can only mean the period failed.
func (pr *periodRun) over() bool {
	select {
	case <-pr.done:
		return true
	default:
		return false
	}
}

// beginPeriod arms all nodes for one statistics period: it snapshots the
// target allocation into a router table, diffs it against the physically
// installed allocation to obtain this period's staged migrations, resets
// per-period statistics and issues the migrations (direct state migration
// runs concurrently with the period's data flow; destinations buffer).
func (e *Engine) beginPeriod() *periodRun {
	e.period++

	// Drain events stranded by an aborted previous period (a worker death
	// makes finishPeriod return early; acks or completions that were already
	// in flight must not be miscounted against this period's arm phase).
	for {
		select {
		case <-e.events:
			continue
		default:
		}
		break
	}

	e.mu.Lock()
	alloc := append([]int(nil), e.groupNode...)
	var staged []core.Move
	for gid, to := range alloc {
		if from := e.baseAlloc[gid]; from != to {
			staged = append(staged, core.Move{Group: gid, From: from, To: to})
		}
	}
	subObserver := e.subObserver
	e.mu.Unlock()

	pr := &periodRun{
		period:     e.period,
		alloc:      alloc,
		stagedGids: map[int]bool{},
		hotMoved:   map[int]bool{},
		errs:       e.ckptErrs,
		segment:    make(chan []core.Move, 1),
		resume:     make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	e.ckptErrs = nil
	// Decide the transfer mode of every staged move: direct full-state
	// migration, checkpoint-assisted delta, or deferred behind an
	// in-flight pre-copy (this also ships the boundary's pre-copy chunks).
	pr.transfers = e.planTransfers(pr, staged)
	pr.staged = make([]core.Move, 0, len(pr.transfers))
	for _, tr := range pr.transfers {
		pr.staged = append(pr.staged, tr.mv)
	}
	executed := make(map[int]bool, len(pr.staged))
	for _, mv := range pr.staged {
		executed[mv.Group] = true
	}
	for _, mv := range staged {
		// Both executed and deferred moves keep their group off the hot-move
		// path (a deferred group's pre-copy destination is already fixed).
		pr.stagedGids[mv.Group] = true
		if !executed[mv.Group] {
			// Deferred: this period still runs the group on its old host.
			pr.alloc[mv.Group] = mv.From
		}
	}
	if k := int64(e.cfg.SubPeriods); k >= 2 {
		pr.subObserver = subObserver
		// Sub-interval boundaries are calibrated from the previous period's
		// source volume; the first period (and any zero-volume period) runs
		// without boundaries. A quiet-but-nonzero period still arms at least
		// one boundary per sub-interval — flooring to zero here would
		// silently disable reactive triggers for the next period even though
		// its volume may spike.
		per := e.lastSrcTuples / k
		if per == 0 && e.lastSrcTuples > 0 {
			per = 1
		}
		if per > 0 {
			pr.subPerSub = per
		}
	}
	e.arm(pr, pr.transfers, false)
	return pr
}

// arm installs pr.alloc on every shard and starts the moves that lead to it:
// the one migration protocol, run at the period boundary by beginPeriod and at
// a segment boundary inside the period by openSegment (resume: the period's
// statistics keep accumulating). In both places the pipeline is drained —
// every shard completed the barrier wave before — so the new router table,
// the barrier counts that follow from its host sets and the in-bound moves
// each destination shard must await take effect between two tuples of every
// key. Only when every shard has acknowledged them are the old hosts asked to
// ship (migrateOutMsg), and only when arm returns does generation go on.
func (e *Engine) arm(pr *periodRun, transfers []stagedTransfer, resume bool) {
	pr.rt = newRouterTable(e.topo, pr.alloc, len(e.nodes))

	// Expected barrier count per (shard, op): one per source feeding the op
	// plus one per shard of each host of each upstream operator — every
	// shard of a hosting node participates in the barrier protocol, so both
	// the senders of a barrier wave and its receivers scale with
	// ShardsPerNode. Ops with no inputs get one synthetic engine barrier.
	nops := len(e.topo.ops)
	senders := make([]int, nops)
	for _, edges := range e.topo.srcEdges {
		for _, op := range edges {
			senders[op]++
		}
	}
	for op := range e.topo.ops {
		for _, ed := range e.topo.opEdges[op] {
			senders[ed.op] += len(pr.rt.hosts[op]) * e.spn
		}
	}
	pr.synthetic = make([]bool, nops)
	for op := range senders {
		if senders[op] == 0 {
			senders[op] = 1
			pr.synthetic[op] = true
		}
	}

	awaitIn := map[int][]int{} // global shard id -> gids arriving by stateMsg
	for _, tr := range transfers {
		g := e.gsidFor(tr.mv.To, tr.mv.Group)
		awaitIn[g] = append(awaitIn[g], tr.mv.Group)
	}

	// Arm every shard of every alive node, collect acks: the hosted ones
	// through armLocal (which also resets their period statistics unless the
	// period resumes), every worker peer's through one arm frame (the worker
	// rebuilds the identical periodStartMsg and runs the same armLocal; its
	// shards ack through the event path). A shard that cannot be armed — closed
	// mailbox, unreachable peer — can never ack, and neither can one that
	// reports an error instead of arming; both count toward the loop's exit so
	// the control goroutine cannot wedge, and so does a peer death during the
	// wait. Either case aborts the period (armFailed) and surfaces from
	// RunPeriod/Run.
	active, errs := e.armLocal(periodStartMsg{period: pr.period, router: pr.rt, barrierNeed: senders}, awaitIn, resume)
	pr.errs = append(pr.errs, errs...)
	pr.armFailed = len(errs) > 0
	peers := e.workerPeers()
	for _, peer := range peers {
		var peerGids []int
		remoteNodes := 0
		for i := range e.nodes {
			if e.removed[i] || e.peerFor(i) != peer {
				continue
			}
			remoteNodes++
		}
		for _, tr := range transfers {
			if e.peerFor(tr.mv.To) == peer {
				peerGids = append(peerGids, tr.mv.Group)
			}
		}
		err := e.rig.ep.Send(peer, encode(frArm, &armFrame{
			period:      pr.period,
			resume:      resume,
			numNodes:    len(e.nodes),
			alloc:       pr.alloc,
			barrierNeed: senders,
			awaitIn:     peerGids,
		}))
		if err != nil {
			pr.errs = append(pr.errs, fmt.Errorf("engine: peer %d failed during arm phase: %w", peer, err))
			pr.armFailed = true
			continue
		}
		active += remoteNodes * e.spn
	}
	pr.expectedCompletions = 0
	for op := range e.topo.ops {
		pr.expectedCompletions += len(pr.rt.hosts[op]) * e.spn
	}
	acks, errored := 0, 0
	for acks+errored < active {
		lost, death := e.rig.lost(peers)
		if lost {
			pr.errs = append(pr.errs, fmt.Errorf("engine: worker died during arm phase of period %d", pr.period))
			pr.armFailed = true
			// Outstanding acks can never complete; stale ones drain at
			// the next beginPeriod.
			return
		}
		var ev engEvent
		select {
		case ev = <-e.events:
		case <-death:
			continue // lost decides whether it was one of this period's peers
		}
		switch ev.kind {
		case evAck:
			acks++
		case evError:
			pr.errs = append(pr.errs, ev.err)
			errored++
			pr.armFailed = true
		default:
			pr.errs = append(pr.errs, fmt.Errorf("engine: unexpected event %d during arm phase", ev.kind))
		}
	}
	if pr.armFailed {
		return
	}

	// Issue the migrations (full-state, or delta against the pre-copied
	// checkpoint version for checkpoint-assisted transfers) to the shard
	// owning each group on its old host. deliver routes to remote sources;
	// the destination (remote or not) was armed above, so its shard awaits
	// the state before flushing.
	for _, tr := range transfers {
		op, kg := e.topo.OpOf(tr.mv.Group)
		e.deliver(e.gsidFor(tr.mv.From, tr.mv.Group), migrateOutMsg{op: op, kg: kg, dest: tr.mv.To, deltaBase: tr.deltaBase})
	}
}

// openSegment is the control goroutine's half of a sub-period boundary that
// returned moves (applyHotMoves is the generator's): the segment's barrier
// wave is through and every state shipped so far has landed, so the moves are
// a staged migration like any other — they enter the allocation and the next
// segment is armed with them. Hot moves ship full state.
func (e *Engine) openSegment(pr *periodRun, moves []core.Move) {
	transfers := make([]stagedTransfer, len(moves))
	e.mu.Lock()
	for i, mv := range moves {
		e.groupNode[mv.Group] = mv.To // target tracks the new physical home
		pr.alloc[mv.Group] = mv.To    // so baseAlloc reflects it at period end
		pr.hotMoved[mv.Group] = true
		transfers[i] = stagedTransfer{mv: mv, deltaBase: -1}
	}
	e.mu.Unlock()
	pr.hotMoves += len(moves)
	e.arm(pr, transfers, true)
}

// finishPeriod waits for all operator instances to flush and all migrations
// to be reported, then merges statistics (nodes quiescent again). gen delivers
// the result of the period's source generation, which runs beside this loop: a
// generation failure aborts the wait. The loop is the one reader of e.events,
// so it also runs the control half of every segment boundary the generators
// open (openSegment), between the completions of one barrier wave and the
// data of the next.
func (e *Engine) finishPeriod(pr *periodRun, gen <-chan error) (*PeriodStats, error) {
	// No generator outlives its period: once done is closed, one parked at a
	// segment boundary gives up and every one stops emitting at its next frame.
	defer func() {
		close(pr.done)
		if gen != nil {
			<-gen
		}
	}()
	completions, migs := 0, 0
	migratedBytes, deltaBytes := 0, 0
	var boundary []core.Move // the open segment boundary's moves
	// Delta transfers carry the checkpoint tip to their destination (the
	// pre-copied base the destination adopted IS the tip); anything else
	// that migrates invalidates its group's tip residency. Most periods move
	// nothing, so the map is built (reusing the engine's scratch) only when
	// transfers exist — lookups on the nil map below are legal and miss.
	var transferDest map[int]int
	if len(pr.transfers) > 0 {
		if e.transferDest == nil {
			e.transferDest = make(map[int]int, len(pr.transfers))
		}
		clear(e.transferDest)
		transferDest = e.transferDest
		for _, tr := range pr.transfers {
			if tr.deltaBase >= 0 {
				transferDest[tr.mv.Group] = tr.mv.To
			}
		}
	}
	peers := e.workerPeers()
	for completions < pr.expectedCompletions || migs < len(pr.staged)+pr.hotMoves || gen != nil {
		// A worker death mid-period means expected completions can never
		// arrive; abort the period instead of wedging the barrier wait. The
		// caller recovers via FailNode + Recover.
		lost, death := e.rig.lost(peers)
		if lost {
			return nil, fmt.Errorf("engine: worker died during period %d", pr.period)
		}
		select {
		case ev := <-e.events:
			switch ev.kind {
			case evCompletion:
				completions++
			case evMigrated:
				migs++
				migratedBytes += ev.bytes
				if ev.delta {
					deltaBytes += ev.bytes
					if dest, ok := transferDest[ev.gid]; ok {
						e.tipNode[ev.gid] = dest
					}
				} else if ev.gid >= 0 && e.tipNode != nil {
					e.tipNode[ev.gid] = -1
				}
			case evError:
				pr.errs = append(pr.errs, ev.err)
			}
		case boundary = <-pr.segment:
		case err := <-gen:
			gen = nil
			if err != nil {
				return nil, err
			}
		case <-death:
			continue // lost decides whether it was one of this period's peers
		}
		if boundary != nil && completions == pr.expectedCompletions && migs == len(pr.staged)+pr.hotMoves {
			// The segment is closed: its non-final wave passed every shard, so
			// nothing sent before it is still in flight, and every state
			// shipped so far was reported. Arm the next one and let the
			// generators go on.
			e.openSegment(pr, boundary)
			if pr.armFailed {
				return nil, fmt.Errorf("engine: period %d arm failed at a segment boundary: %w", pr.period, errors.Join(pr.errs...))
			}
			completions, boundary = 0, nil
			pr.resume <- struct{}{}
		}
	}
	if len(pr.errs) > 0 {
		return nil, errors.Join(pr.errs...)
	}

	ps := &PeriodStats{
		Period:     pr.period,
		GroupUnits: make([]float64, e.topo.NumGroups()),
		GroupNode:  append([]int(nil), pr.alloc...),
		StateBytes: make([]int, e.topo.NumGroups()),
		NodeUnits:  make([]float64, len(e.nodes)),
		Migrations: len(pr.staged) + pr.hotMoves,
		HotMoves:   pr.hotMoves,
		// For checkpoint-assisted transfers, migratedBytes already counts
		// only the delta — the pre-copied base moved in the background and
		// never pauses processing.
		MigrationLatency:   float64(migratedBytes) * migrSecondsPerByte,
		MigratedDeltaBytes: int64(deltaBytes),
		PrecopyBytes:       pr.precopyBytes,
		DeferredMoves:      pr.deferred,
		BatchesCrossNode:   pr.srcBatches,
		SrcBytesCrossNode:  pr.srcBytes,
	}
	e.lastSrcTuples = pr.srcEmitted
	// Merge statistics: this process's barrier fold plus every worker's (the
	// workers are quiescent — their shards' completions all arrived above — and
	// the request pings their shards for the happens-before edge). Loads
	// accumulate as integer milli-units and convert to float units exactly once
	// per group/node — float addition order would otherwise make the merged
	// statistics depend on which process measured which shard, and the
	// in-memory vs TCP equivalence guarantee is exact equality. The
	// communication merge is exact for the same reason: unit counts, summed by
	// the builder regardless of arrival order.
	ng := e.topo.NumGroups()
	e.ckptDeltaBuf = slices.Grow(e.ckptDeltaBuf[:0], ng)[:ng]
	deltas := e.ckptDeltaBuf
	for gid := range deltas {
		deltas[gid] = -1
	}
	e.commBuilder.Reset(ng)
	acc, groups := e.foldLocal(pr.period, e.commBuilder.Add)
	for _, g := range groups {
		ps.StateBytes[g.gid], deltas[g.gid] = g.size, g.delta
	}
	bodies, rerrs := e.rig.requestAll(peers, func(int) reqFrame { return reqFrame{kind: rqStats, version: pr.period} })
	for k, peer := range peers {
		if rerrs[k] != nil {
			return nil, fmt.Errorf("engine: stats from peer %d: %w", peer, rerrs[k])
		}
		if err := acc.addReply(bodies[k], &e.commBuilder, ps.StateBytes, deltas); err != nil {
			return nil, fmt.Errorf("engine: stats reply from peer %d: %w", peer, err)
		}
	}
	ps.TuplesIn, ps.TuplesOut = acc.tuplesIn, acc.tuplesOut
	ps.BytesCrossNode, ps.BytesCrossNodeIn = acc.bytesOut, acc.bytesIn
	ps.BatchesCrossNode += acc.batchesOut
	totalMilli := int64(0)
	for i, m := range acc.nodeMilli {
		ps.NodeUnits[i] = float64(m) / 1000
		totalMilli += m
	}
	for gid, m := range acc.groupMilli {
		ps.GroupUnits[gid] = float64(m) / 1000
	}
	e.lastTotalMilli = totalMilli
	ps.Comm = e.commBuilder.Build()
	// deltas now holds, per group, the encoded delta between its live state and
	// the tip its shard holds — the synchronous cost a checkpoint-assisted move
	// of the group would pay right now, the residency signal the planner's cost
	// model consumes (see core.GroupStat). A reading counts only where the
	// controller's record agrees that the tip is where the group lives
	// (Engine.tipNode), whichever process took it: a group that moved
	// full-state since its checkpoint reports -1 (and migrates full) until the
	// next checkpoint gives it a tip again. Before the first checkpoint is cut
	// there is no reading at all.
	if e.tipNode != nil {
		for gid := range deltas {
			if e.tipNode[gid] != pr.alloc[gid] {
				deltas[gid] = -1
			}
		}
		ps.CkptDeltaBytes = deltas
	}
	// Allocation telemetry: the delta of the runtime's cumulative allocation
	// counters since the previous period barrier. The first period reports 0
	// (no previous barrier to diff against).
	if e.allocSamples[0].Name == "" {
		e.allocSamples[0].Name = "/gc/heap/allocs:objects"
		e.allocSamples[1].Name = "/gc/heap/allocs:bytes"
	}
	metrics.Read(e.allocSamples[:])
	objs := e.allocSamples[0].Value.Uint64()
	bytes := e.allocSamples[1].Value.Uint64()
	if e.allocSampled {
		ps.Allocs = objs - e.prevAllocObjs
		ps.AllocBytes = bytes - e.prevAllocBytes
	}
	e.prevAllocObjs, e.prevAllocBytes = objs, bytes
	e.allocSampled = true
	// The period installed pr.alloc, not necessarily the current target:
	// a plan staged mid-period diffs against what is physically in place.
	e.mu.Lock()
	e.baseAlloc = append(e.baseAlloc[:0], pr.alloc...)
	e.last = ps
	if ps.CkptDeltaBytes != nil {
		e.ckptDeltas = append(e.ckptDeltas[:0], ps.CkptDeltaBytes...)
	}
	e.mu.Unlock()
	return ps, nil
}

// RunPeriod executes one statistics period: staged migrations are applied via
// direct state migration concurrently with the new period's data flow, sources
// generate their batch on a goroutine of their own — the calling goroutine is
// the period's control goroutine, free to coordinate segment boundaries —
// every operator processes and flushes, and the merged statistics are
// returned.
func (e *Engine) RunPeriod() (*PeriodStats, error) {
	pr := e.beginPeriod()
	if pr.armFailed {
		return nil, fmt.Errorf("engine: period %d arm failed: %w", pr.period, errors.Join(pr.errs...))
	}
	gen := make(chan error, 1)
	go func() { gen <- e.generate(pr) }()
	return e.finishPeriod(pr, gen)
}

// Run drives the engine continuously until ctx is cancelled or periods
// complete (periods <= 0 means until cancelled): one RunPeriod after another,
// with the observe hook — invoked between periods with each period's merged
// statistics — where an adaptation loop (see internal/controller) snapshots,
// plans and stages reconfigurations. observe may be nil; a non-nil error
// return stops the run and is returned.
func (e *Engine) Run(ctx context.Context, periods int, observe func(*PeriodStats) error) error {
	for p := 0; periods <= 0 || p < periods; p++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		ps, err := e.RunPeriod()
		if err != nil {
			return fmt.Errorf("period %d: %w", e.period, err)
		}
		if observe != nil {
			if err := observe(ps); err != nil {
				return err
			}
		}
	}
	return nil
}

// ApplyPlan sets the target allocation; the required migrations execute
// (with direct state migration) at the start of the next period. Moves onto
// removed nodes are rejected. ApplyPlan is safe to call while a period is
// in flight: the running period keeps its installed allocation and the
// staged diff is computed at the next period boundary.
func (e *Engine) ApplyPlan(groupNode []int) error {
	if len(groupNode) != e.topo.NumGroups() {
		return fmt.Errorf("engine: plan has %d groups, want %d", len(groupNode), e.topo.NumGroups())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for gid, to := range groupNode {
		if to < 0 || to >= len(e.nodes) {
			return fmt.Errorf("engine: plan sends group %d to invalid node %d", gid, to)
		}
		if e.removed[to] {
			return fmt.Errorf("engine: plan sends group %d to removed node %d", gid, to)
		}
	}
	copy(e.groupNode, groupNode)
	return nil
}

// AddNodes provisions count new worker nodes of unit capacity and returns
// their ids. Must be called between periods (the controller applies scaling
// decisions at period boundaries: worker goroutines index the node table
// unlocked while a period is in flight). The mutex only orders it against
// concurrent ApplyPlan / Allocation / Snapshot callers.
func (e *Engine) AddNodes(count int) []int {
	if count <= 0 {
		return nil
	}
	w := make([]float64, count)
	for i := range w {
		w[i] = 1
	}
	ids, _ := e.AddNodesWeighted(w) // unit weights never fail validation
	return ids
}

// AddNodesWeighted provisions one new worker node per entry of weights, with
// that entry as its relative capacity weight (1 = the baseline node; see
// Config.CapacityWeights), and returns their ids. Weights must be positive —
// this mirrors New's validation, which scale-out previously bypassed by
// hardcoding weight 1 for every added node. Same call-site constraints as
// AddNodes.
func (e *Engine) AddNodesWeighted(weights []float64) ([]int, error) {
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("engine: added node weight %d is %v, want > 0", i, w)
		}
	}
	// Each new slot lands on the alive worker peer currently hosting the
	// fewest nodes (ties to the lowest peer id) — on this process when there
	// is none, the one decision here that looks at the layout. The provision
	// goes to this process's own table and to EVERY worker — all processes
	// must extend their node tables before any arm frame can reference the
	// new slots. The awaited replies provide that causality.
	peers := e.rig.alivePeers()
	hosted := map[int]int{}
	for i := range e.nodes {
		if !e.removed[i] {
			hosted[e.peerFor(i)]++
		}
	}
	q := reqFrame{kind: rqProvision, provW: weights}
	for k := range weights {
		best := e.self
		for j, p := range peers {
			if j == 0 || hosted[p] < hosted[best] {
				best = p
			}
		}
		hosted[best]++
		q.provIDs = append(q.provIDs, len(e.nodes)+k)
		q.provOwner = append(q.provOwner, best)
	}
	e.mu.Lock()
	err := e.provisionLocal(q.provIDs, q.provOwner, weights)
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	for _, peer := range peers {
		body, err := e.rig.request(peer, q)
		if err != nil {
			return q.provIDs, fmt.Errorf("engine: provision on peer %d: %w", peer, err)
		}
		var ok okReply
		rerr := decode(body, &ok)
		codec.PutBuf(body)
		if rerr == nil {
			rerr = ok.err
		}
		if rerr != nil {
			return q.provIDs, fmt.Errorf("engine: provision on peer %d: %w", peer, rerr)
		}
	}
	return q.provIDs, nil
}

// MarkForRemoval flags nodes for scale-in; the balancer drains them.
func (e *Engine) MarkForRemoval(ids []int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, id := range ids {
		if id >= 0 && id < len(e.nodes) {
			e.killed[id] = true
		}
	}
}

// TerminateNode shuts a drained node down. It must hold no key groups.
func (e *Engine) TerminateNode(id int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id < 0 || id >= len(e.nodes) {
		return fmt.Errorf("engine: terminate invalid node %d", id)
	}
	if e.removed[id] {
		return nil
	}
	for gid, n := range e.groupNode {
		if n == id {
			return fmt.Errorf("engine: node %d still hosts group %d", id, gid)
		}
	}
	for gid, n := range e.baseAlloc {
		if n == id {
			return fmt.Errorf("engine: node %d still physically holds group %d (migration pending)", id, gid)
		}
	}
	if err := e.terminateLocal(id); err != nil {
		return err
	}
	e.askHost(id, rqTerminate)
	return nil
}

// askHost forwards a terminate or fail of node slot id to the worker peer
// hosting it, after the controller's own tables took it; slots hosted here
// have no one to ask. Best-effort — a dead peer's nodes are gone anyway (the
// usual reason FailNode is called is that the whole process crashed).
func (e *Engine) askHost(id int, kind byte) {
	if peer := e.peerFor(id); peer != e.self && !e.rig.isDead(peer) {
		if body, err := e.rig.request(peer, reqFrame{kind: kind, node: id}); err == nil {
			codec.PutBuf(body)
		}
	}
}

// Close stops the hosted node goroutines and closes the endpoint (which ends
// the reader), after a checkpoint write in flight has reached the store. The
// controller first tells every worker to do the same.
func (e *Engine) Close() {
	e.joinCheckpoint()
	for i, n := range e.nodes {
		if n != nil && !e.removed[i] {
			n.closeMailboxes()
		}
	}
	if e.self == 0 {
		for _, peer := range e.rig.alivePeers() {
			_ = e.rig.ep.Send(peer, encodeByeFrame())
		}
	}
	_ = e.rig.ep.Close()
}

// Snapshot converts the last period's statistics into the controller's
// core.Snapshot. The caller sets migration budgets (MaxMigrCost /
// MaxMigrations / Alpha) before planning.
func (e *Engine) Snapshot() (*core.Snapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.last == nil {
		return nil, fmt.Errorf("engine: no completed period")
	}
	s := &core.Snapshot{
		NumNodes: len(e.nodes),
		Kill:     make([]bool, len(e.nodes)),
		Groups:   make([]core.GroupStat, e.topo.NumGroups()),
		Ops:      e.opStats(),
		Comm:     e.last.Comm,
	}
	hetero := false
	for i := range e.nodes {
		s.Kill[i] = e.killed[i] || e.removed[i]
		if e.weights[i] != 1 {
			hetero = true
		}
	}
	if hetero {
		s.Capacity = append([]float64(nil), e.weights...)
	}
	for gid := range s.Groups {
		op, _ := e.topo.OpOf(gid)
		s.Groups[gid] = core.GroupStat{
			Op:        op,
			Node:      e.groupNode[gid],
			Load:      e.loadPercent(e.last.GroupUnits[gid]),
			StateSize: float64(e.last.StateBytes[gid]),
		}
		if e.ckptDeltas != nil {
			if d := e.ckptDeltas[gid]; d >= 0 {
				s.Groups[gid].HasCkpt = true
				s.Groups[gid].CkptDelta = float64(d)
			}
		}
	}
	return s, nil
}

// CalibrateCapacity rescales the capacity unit so that the average load of
// non-removed nodes in the last period equals targetAvgPercent. Experiments
// call this once after a warm-up period so the reported percentages sit in
// a realistic band; it only changes the unit conversion, never behaviour.
func (e *Engine) CalibrateCapacity(targetAvgPercent float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.last == nil || targetAvgPercent <= 0 {
		return
	}
	total, n := 0.0, 0
	for i, u := range e.last.NodeUnits {
		if !e.removed[i] {
			total += u
			n++
		}
	}
	if n == 0 || total == 0 {
		return
	}
	e.capacity = (total / float64(n)) * 100 / targetAvgPercent
}

// NodeLoadPercents returns per-node load (% of capacity) from the last
// period.
func (e *Engine) NodeLoadPercents() []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.last == nil {
		return nil
	}
	out := make([]float64, len(e.nodes))
	for i, u := range e.last.NodeUnits {
		out[i] = e.loadPercent(u) / e.weights[i]
	}
	return out
}
