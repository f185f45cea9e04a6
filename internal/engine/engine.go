package engine

import (
	"context"
	"errors"
	"fmt"
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
	// homogeneous; nodes added later via AddNodes have weight 1.
	CapacityWeights []float64
	// ShardsPerNode splits every node's execution into this many
	// hash-partitioned worker shards, each with its own mailbox-drain
	// goroutine, outbox set and statistics (see node.go) — cores within a
	// node become virtual shared-nothing nodes, so the data path scales with
	// GOMAXPROCS while planning, host sets and the cost model stay strictly
	// node-level (intra-node shard-to-shard frames are modeled as free local
	// traffic). 0 or 1 keeps the single-goroutine node of earlier versions;
	// a value above 256 is an error (a shard index is a byte).
	ShardsPerNode int
}

func (c *Config) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.ShardsPerNode <= 0 {
		c.ShardsPerNode = 1
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
	// commBuilder is the reusable staging area for the period-barrier merge
	// of the shards' communication accumulators into a core.CommCSR.
	commBuilder core.CommBuilder

	// mu guards the allocation state (groupNode, baseAlloc) so that
	// ApplyPlan may be invoked while a period is in flight: an asynchronous
	// controller can stage a plan the moment its planner finishes, and the
	// staged diff is picked up at the next period boundary.
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

	// ckpt is the incremental checkpoint store (nil until the first
	// TakeCheckpoint): the log of what the tip-holding shards of every process
	// wrote. Owned by the engine goroutine between periods.
	ckpt *statestore.Store
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

	// Checkpoint scratch, reused across barriers and cadences: liveGroups is
	// the list of locally hosted states, in shard order, that the delta sizing
	// and cutCheckpoint fan out over, and freshScratch the gids checkpointed
	// this cadence.
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

	// gen is the generator's reusable emission scratch (outbox set,
	// counters), so steady-state generation is allocation-flat; see gen.go.
	gen genState
	// Scratch of the cluster read (readStats), reused so the merge itself
	// stays out of the Allocs telemetry it feeds: acc is the process's
	// accumulator, which foldLocal reads every hosted shard into, and
	// ckptDeltaBuf backs PeriodStats.CkptDeltaBytes.
	acc          mergeAcc
	ckptDeltaBuf []int
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

// Allocation returns a copy of the current target key-group allocation.
func (e *Engine) Allocation() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.groupNode...)
}

// periodRun carries one period's coordination state across the
// begin/generate/finish phases.
type periodRun struct {
	period int
	rt     *routerTable
	// alloc is the allocation this period physically installs (the router
	// table's view) — the diff base for the next period's migrations, even
	// if ApplyPlan re-targets groupNode while the period is in flight.
	alloc []int
	// staged lists the migrations this period executes at its boundary.
	staged              []core.Move
	expectedCompletions int
	synthetic           []bool
	errs                []error
	// armFailed marks an arm phase that lost a shard (closed mailbox or an
	// error event instead of an ack): the period is aborted before any data
	// flows and the errors surface from RunPeriod/Run. The engine's shards
	// may be armed inconsistently afterwards — callers must Close (or
	// recover via the checkpoint path) rather than run further periods.
	armFailed bool
	// done is closed when finishPeriod returns: the generator then drops what
	// its sources still emit (over, flushGen) and sends no barrier wave, so
	// it ends soon after a period that failed.
	done chan struct{}
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
	e.mu.Unlock()

	// Every staged move runs now, as a direct full-state migration or a
	// checkpoint-assisted delta (the source decides, onMigrateOut).
	pr := &periodRun{
		period: e.period,
		alloc:  alloc,
		staged: staged,
		errs:   e.ckptErrs,
		done:   make(chan struct{}),
	}
	e.ckptErrs = nil
	e.arm(pr)
	return pr
}

// arm installs pr.alloc on every shard and starts the staged moves that lead
// to it: the one migration protocol, run at the period boundary by
// beginPeriod. The pipeline is drained there — every shard completed the
// previous period's barrier wave — so the new router table, the barrier
// counts that follow from its host sets and the in-bound moves each
// destination shard must await take effect between two tuples of every key.
// Only when every shard has acknowledged them are the old hosts asked to ship
// (migrateOutMsg), and only when arm returns does generation begin.
func (e *Engine) arm(pr *periodRun) {
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
	for _, mv := range pr.staged {
		g := e.gsidFor(mv.To, mv.Group)
		awaitIn[g] = append(awaitIn[g], mv.Group)
	}

	// Arm every shard of every alive node, collect acks: the hosted ones
	// through armLocal (which also resets their period statistics), every worker peer's through one arm frame (the worker
	// rebuilds the identical periodStartMsg and runs the same armLocal; its
	// shards ack through the event path). A shard that cannot be armed — closed
	// mailbox, unreachable peer — can never ack, and neither can one that
	// reports an error instead of arming; both count toward the loop's exit so
	// the control goroutine cannot wedge, and so does a peer death during the
	// wait. Either case aborts the period (armFailed) and surfaces from
	// RunPeriod/Run.
	active, errs := e.armLocal(periodStartMsg{period: pr.period, router: pr.rt, barrierNeed: senders}, awaitIn)
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
		for _, mv := range pr.staged {
			if e.peerFor(mv.To) == peer {
				peerGids = append(peerGids, mv.Group)
			}
		}
		err := e.rig.ep.Send(peer, encode(frArm, &armFrame{
			period:      pr.period,
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

	// Issue the migrations to the shard owning each group on its old host,
	// which decides whether the group travels whole or by delta against its
	// tip. deliver routes to remote sources; the destination (remote or not)
	// was armed above, so its shard awaits the state before flushing.
	for _, mv := range pr.staged {
		op, kg := e.topo.OpOf(mv.Group)
		e.deliver(e.gsidFor(mv.From, mv.Group), migrateOutMsg{op: op, kg: kg, dest: mv.To})
	}
}

// finishPeriod waits for all operator instances to flush and all migrations
// to be reported, then merges statistics (nodes quiescent again). gen delivers
// the result of the period's source generation, which runs beside this loop: a
// generation failure aborts the wait.
func (e *Engine) finishPeriod(pr *periodRun, gen <-chan error) (*PeriodStats, error) {
	// The generator does not outlive its period: once done is closed, it
	// stops emitting at its next frame.
	defer func() {
		close(pr.done)
		if gen != nil {
			<-gen
		}
	}()
	completions, migs := 0, 0
	migratedBytes, deltaBytes := 0, 0
	var baseBytes int64
	peers := e.workerPeers()
	for completions < pr.expectedCompletions || migs < len(pr.staged) || gen != nil {
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
					baseBytes += int64(ev.base)
				}
			case evError:
				pr.errs = append(pr.errs, ev.err)
			}
		case err := <-gen:
			gen = nil
			if err != nil {
				return nil, err
			}
		case <-death:
			continue // lost decides whether it was one of this period's peers
		}
	}
	if len(pr.errs) > 0 {
		return nil, errors.Join(pr.errs...)
	}

	ps, err := e.readStats(pr)
	if err != nil {
		return nil, err
	}
	ps.Migrations = len(pr.staged)
	// For checkpoint-assisted transfers, migratedBytes counts only the delta —
	// the base is the checkpoint fault tolerance already took.
	ps.MigrationLatency = float64(migratedBytes) * migrSecondsPerByte
	ps.MigratedDeltaBytes = int64(deltaBytes)
	ps.PrecopyBytes = baseBytes
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

// readStats reads the cluster at the period barrier, a drained point, into a
// PeriodStats of the period: this
// process's barrier fold plus every worker's (the workers are quiescent —
// their shards' completions all arrived — and the request pings their shards
// for the happens-before edge). Loads accumulate as integer milli-units and
// convert to float units exactly once per group/node — float addition order
// would otherwise make the merged statistics depend on which process measured
// which shard, and the in-memory vs TCP equivalence guarantee is exact
// equality. The communication merge is exact for the same reason: unit
// counts, summed by the builder regardless of arrival order. It commits
// nothing to the engine: finishPeriod fills in the migrations and keeps the
// result. (The tips it sizes keep the reading, so a checkpoint cut takes the
// barrier's.)
func (e *Engine) readStats(pr *periodRun) (*PeriodStats, error) {
	ng := e.topo.NumGroups()
	ps := &PeriodStats{
		Period:            pr.period,
		GroupUnits:        make([]float64, ng),
		GroupNode:         append([]int(nil), pr.alloc...),
		StateBytes:        make([]int, ng),
		NodeUnits:         make([]float64, len(e.nodes)),
		BatchesCrossNode:  e.gen.batches,
		SrcBytesCrossNode: e.gen.bytes,
	}
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
	// The request is built only where there are workers: a process alone
	// allocates nothing for them.
	if peers := e.workerPeers(); len(peers) > 0 {
		bodies, rerrs := e.rig.requestAll(peers, func(int) reqFrame { return reqFrame{kind: rqStats, version: pr.period} })
		for k, peer := range peers {
			if rerrs[k] != nil {
				return nil, fmt.Errorf("engine: stats from peer %d: %w", peer, rerrs[k])
			}
			if err := acc.addReply(bodies[k], &e.commBuilder, ps.StateBytes, deltas); err != nil {
				return nil, fmt.Errorf("engine: stats reply from peer %d: %w", peer, err)
			}
		}
	}
	ps.TuplesIn, ps.TuplesOut = acc.tuplesIn, acc.tuplesOut
	ps.BytesCrossNode, ps.BytesCrossNodeIn = acc.bytesOut, acc.bytesIn
	ps.BatchesCrossNode += acc.batchesOut
	for i, m := range acc.nodeMilli {
		ps.NodeUnits[i] = float64(m) / 1000
	}
	for gid, m := range acc.groupMilli {
		ps.GroupUnits[gid] = float64(m) / 1000
	}
	ps.Comm = e.commBuilder.Build()
	// deltas now holds, per group, the encoded delta between its live state and
	// the tip its shard holds — the synchronous cost a checkpoint-assisted move
	// of the group would pay right now, the residency signal the planner's cost
	// model consumes (see core.GroupStat). A tip only ever lives with its
	// group, so a group that moved full-state since its checkpoint reports -1
	// (and migrates full) until the next checkpoint gives it a tip again.
	// Before the engine has a store there is no reading at all.
	if e.ckpt != nil {
		ps.CkptDeltaBytes = deltas
	}
	return ps, nil
}

// RunPeriod executes one statistics period: staged migrations are applied via
// direct state migration concurrently with the new period's data flow, sources
// generate their batch on a goroutine of their own — the calling goroutine is
// the period's control goroutine, which counts the barrier wave's completions
// and the moves — every operator processes and flushes, and the merged
// statistics are returned.
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

// AddNodes provisions n new worker nodes and returns their ids. An added node
// has capacity weight 1, the baseline node's: weights are fixed when the
// cluster forms (Config.CapacityWeights). Must be called between periods
// (the controller applies scaling decisions at period boundaries: worker
// goroutines index the node table unlocked while a period is in flight). The
// mutex only orders it against concurrent ApplyPlan / Allocation / Snapshot
// callers.
func (e *Engine) AddNodes(n int) ([]int, error) {
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
	q := reqFrame{kind: rqProvision}
	for k := range n {
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
	err := e.provisionLocal(q.provIDs, q.provOwner)
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
// MaxMigrations) before planning.
func (e *Engine) Snapshot() (*core.Snapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.last == nil {
		return nil, fmt.Errorf("engine: no completed period")
	}
	return e.snapshotOf(e.last), nil
}

// snapshotOf builds the planner's view of a period's statistics ps over the
// current target allocation and node table. e.ckptDeltas (nil for none) is
// the residency signal: a group with a reading >= 0 has a checkpoint tip that
// far behind its state. e.mu must be held.
func (e *Engine) snapshotOf(ps *PeriodStats) *core.Snapshot {
	s := &core.Snapshot{
		NumNodes: len(e.nodes),
		Kill:     make([]bool, len(e.nodes)),
		Groups:   make([]core.GroupStat, e.topo.NumGroups()),
		Ops:      make([]core.OpStat, len(e.topo.ops)),
		Comm:     ps.Comm,
	}
	for op := range e.topo.ops {
		s.Ops[op].Name = e.topo.ops[op].Name
		s.Ops[op].Downstream = e.topo.Downstream(op)
		s.Ops[op].Groups = make([]int, e.topo.ops[op].KeyGroups)
		for kg := range s.Ops[op].Groups {
			s.Ops[op].Groups[kg] = e.topo.GID(op, kg)
		}
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
			Load:      e.loadPercent(ps.GroupUnits[gid]),
			StateSize: float64(ps.StateBytes[gid]),
		}
		if e.ckptDeltas != nil {
			if d := e.ckptDeltas[gid]; d >= 0 {
				s.Groups[gid].HasCkpt = true
				s.Groups[gid].CkptDelta = float64(d)
			}
		}
	}
	return s
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
