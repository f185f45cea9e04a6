package engine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Source generation. The engine produces each period's input batch on
// Config.GenWorkers generators: generator 0 is the period's generation
// goroutine itself (RunPeriod starts it beside the control goroutine), every
// further one a goroutine spawned from it, so one worker — the default —
// shares nothing. Each generator is a distinct
// sender with its own per-(dest, op) outbox set and byte/batch/tuple
// counters, so the per-sender FIFO invariant the shards rely
// on holds per generator; the emitted tuple multiset is identical for any
// worker count because partitionable sources split deterministically (see
// PartSourceFunc). End-of-period source barriers are emitted only after every
// generator has joined and every generator outbox has flushed, so barrier
// counting is unchanged: one barrier per source edge per receiving shard.

// genState is one generator worker's reusable emission scratch, hoisted onto
// the Engine so steady-state generation allocates nothing (visible in
// PeriodStats.Allocs). Outboxes are reusable across periods by construction:
// take() detaches the frame and begin() lazily starts a fresh one with a
// dictionary reset, so a reused outbox produces byte-identical frames.
type genState struct {
	outs    []*outbox // indexed by global shard id
	bytes   int64     // wire bytes staged this period (per-record sum)
	batches int64     // frames shipped this period
	emitted int64     // source tuples emitted this period
	err     error     // what stopped this generator this period, if anything
	stopped bool      // the period failed: drop what the sources still emit
}

// genStateFor returns worker w's generation scratch, grown to the current
// node-table width and with its per-period counters reset. Existing outboxes
// are kept — their dictionaries reset lazily on first use each period.
func (e *Engine) genStateFor(w int) *genState {
	for len(e.genStates) <= w {
		e.genStates = append(e.genStates, &genState{})
	}
	gs := e.genStates[w]
	want := len(e.nodes) * e.spn
	if cap(gs.outs) < want {
		outs := make([]*outbox, want)
		copy(outs, gs.outs)
		gs.outs = outs
	} else {
		gs.outs = gs.outs[:want]
	}
	gs.bytes, gs.batches, gs.emitted, gs.err, gs.stopped = 0, 0, 0, nil, false
	return gs
}

// flushGen ships one generator outbox's staged frame, if any. A frame is also
// how often a generator looks at whether its period is still running: a
// source cannot be interrupted, so after a failure its tuples are dropped.
func (e *Engine) flushGen(pr *periodRun, gs *genState, destG int) {
	ob := gs.outs[destG]
	if ob == nil {
		return
	}
	if m, ok := ob.take(pr.period); ok {
		gs.batches++
		e.deliver(destG, m)
		gs.stopped = pr.over()
	}
}

// stageSrc routes one source tuple to every downstream operator of source si
// through the generator's own outbox set.
func (e *Engine) stageSrc(pr *periodRun, gs *genState, si int, t *Tuple) {
	for _, op := range e.topo.srcEdges[si] {
		kg := pr.rt.keyGroup(op, t.Key)
		gid := e.topo.GID(op, kg)
		destG := e.gsidFor(pr.rt.nodeOf(op, kg), gid)
		ob := gs.outs[destG]
		if ob == nil {
			ob = &outbox{}
			gs.outs[destG] = ob
		}
		if ob.count > 0 && ob.op != op {
			e.flushGen(pr, gs, destG)
		}
		ob.op = op
		gs.bytes += int64(ob.stage(kg, t))
		if ob.full() {
			e.flushGen(pr, gs, destG)
		}
	}
	if t.pooled {
		// NewTuple-built source tuple: fully encoded above, recycle.
		recycle(t)
	}
}

// runSrc invokes one source generator with panic containment.
func runSrc(name string, f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: source %q panicked: %v", name, r)
		}
	}()
	f()
	return nil
}

// genCoord coordinates the generators' sub-period safe points in a period
// that armed boundaries. The emitted-tuple count is a shared atomic; when it
// crosses the next boundary threshold, one generator wins the stop flag and
// becomes the boundary initiator, every other live generator parks at its
// next between-tuples safe point, and the initiator — provably alone — runs
// the ordinary sub-period boundary machinery (flush all generator outboxes,
// close the segment, wait until the next one is armed) before releasing the
// others. All cross-generator state (outboxes, pr.rt, pr.subIdx) is only
// touched in that single-threaded region; the park/release mutex edges
// publish it. A lone generator wins every flag and waits for nobody: its
// boundaries fire inline between two of its tuples.
type genCoord struct {
	e        *Engine
	pr       *periodRun
	flushAll func()

	mu     sync.Mutex
	cond   *sync.Cond
	parked int // generators waiting at the safe point
	active int // generators not yet finished

	stop    atomic.Bool  // boundary in progress: park at next safe point
	emitted atomic.Int64 // total tuples emitted across generators
	subNext atomic.Int64 // emission count of the next boundary (0: none left)
	nextVal int64        // subNext's value, owned by the boundary initiator
}

// newGenCoord returns the period's safe-point coordinator, nil when the
// period armed no sub-period boundary: generators then count what they emit
// locally and share nothing per tuple.
func newGenCoord(e *Engine, pr *periodRun, flushAll func(), workers int) *genCoord {
	if pr.subPerSub == 0 {
		return nil
	}
	gc := &genCoord{e: e, pr: pr, flushAll: flushAll, active: workers, nextVal: pr.subPerSub}
	gc.cond = sync.NewCond(&gc.mu)
	gc.subNext.Store(pr.subPerSub)
	return gc
}

// safePoint is where a generator stands between two tuples: nothing is
// half-staged and no barrier has been sent.
func (gc *genCoord) safePoint() {
	n := gc.emitted.Add(1)
	if gc.stop.Load() {
		gc.park()
	} else if next := gc.subNext.Load(); next > 0 && n >= next {
		gc.boundary()
	}
}

// park blocks the calling generator at its safe point until the boundary
// initiator releases the rendezvous.
func (gc *genCoord) park() {
	gc.mu.Lock()
	gc.parked++
	gc.cond.Broadcast()
	for gc.stop.Load() {
		gc.cond.Wait()
	}
	gc.parked--
	gc.mu.Unlock()
}

// leave retires a finished (or failed) generator from the rendezvous set so
// a boundary initiator never waits for it.
func (gc *genCoord) leave() {
	gc.mu.Lock()
	gc.active--
	gc.cond.Broadcast()
	gc.mu.Unlock()
}

// boundary fires when the shared emission count crosses the next sub-period
// threshold. The winner of the stop flag waits for every other live
// generator to park, runs the due boundaries single-threaded, publishes the
// next threshold and releases; losers just park.
func (gc *genCoord) boundary() {
	if !gc.stop.CompareAndSwap(false, true) {
		gc.park()
		return
	}
	gc.mu.Lock()
	for gc.parked < gc.active-1 {
		gc.cond.Wait()
	}
	gc.mu.Unlock()
	// Single-threaded region: every other live generator is parked (their
	// parked++ under mu happens-before our read of the count), so flushing
	// their outboxes and swapping the period's router table is safe.
	pr, e := gc.pr, gc.e
	for pr.subIdx < e.cfg.SubPeriods-1 && gc.emitted.Load() >= gc.nextVal {
		pr.subIdx++
		gc.nextVal += pr.subPerSub
		e.subBoundary(pr, gc.flushAll)
	}
	if pr.subIdx < e.cfg.SubPeriods-1 {
		gc.subNext.Store(gc.nextVal)
	} else {
		gc.subNext.Store(0)
	}
	gc.mu.Lock()
	gc.stop.Store(false)
	gc.cond.Broadcast()
	gc.mu.Unlock()
}

// generate runs the topology's sources for the period. Partitionable sources
// run one part per generator; sources without a split hook run whole on
// generator 0, interleaved with the parts — the emitted multiset is the same
// either way, and with no partitionable source there is nothing to split, so
// generator 0 works alone. The source barriers ship only after every
// generator has joined and flushed.
func (e *Engine) generate(pr *periodRun) error {
	parts := 1
	if e.cfg.GenWorkers > 1 && slices.ContainsFunc(e.topo.sources, func(s *Source) bool { return s.GenPart != nil }) {
		parts = e.cfg.GenWorkers
	}
	for w := 0; w < parts; w++ {
		e.genStateFor(w)
	}
	gens := e.genStates[:parts]
	flushAll := func() {
		for _, gs := range gens {
			for destG := range gs.outs {
				e.flushGen(pr, gs, destG)
			}
		}
	}
	gc := newGenCoord(e, pr, flushAll, parts)
	e.genJoin.Add(parts)
	for w := 1; w < parts; w++ {
		go e.runGenerator(pr, gc, w, parts)
	}
	e.runGenerator(pr, gc, 0, parts)
	e.genJoin.Wait()
	for _, gs := range gens {
		if gs.err != nil {
			return gs.err
		}
		pr.srcEmitted += gs.emitted
	}
	flushAll()
	// Sub-period boundaries that emission did not reach (with low volume
	// generation finishes before the first emission threshold): fire them
	// now, before the final wave is sent, so the observer still sees every
	// boundary of the period. All generators have joined — this goroutine is
	// the only one touching the period now.
	for pr.subPerSub > 0 && pr.subIdx < e.cfg.SubPeriods-1 {
		pr.subIdx++
		e.subBoundary(pr, flushAll)
	}
	// Frames are counted as they ship, so only now is the count complete.
	for _, gs := range gens {
		pr.srcBytes += gs.bytes
		pr.srcBatches += gs.batches
	}
	if !pr.over() { // a failed period ends without a wave; finishPeriod has its error
		e.emitSourceBarriers(pr, true)
	}
	return nil
}

// runGenerator is generator w of parts: it emits its share of every source
// through its own outbox set, counting tuples locally — only a period with
// armed boundaries (gc non-nil) pays for the shared count and the safe-point
// check. What stopped it early is left in its genState.
func (e *Engine) runGenerator(pr *periodRun, gc *genCoord, w, parts int) {
	defer e.genJoin.Done()
	if gc != nil {
		defer gc.leave()
	}
	gs := e.genStates[w]
	for si, src := range e.topo.sources {
		emit := func(t *Tuple) {
			if gs.stopped {
				return
			}
			e.stageSrc(pr, gs, si, t)
			gs.emitted++
			if gc != nil {
				gc.safePoint()
			}
		}
		switch {
		case parts > 1 && src.GenPart != nil:
			gs.err = runSrc(src.Name, func() { src.GenPart(pr.period, w, parts, emit) })
		case w == 0:
			gs.err = runSrc(src.Name, func() { src.Gen(pr.period, emit) })
		}
		if gs.err != nil {
			return
		}
	}
}

// emitSourceBarriers ships the sources' barrier wave — the end-of-period one
// (final) or the one that closes a segment at a sub-period boundary — then
// the synthetic barriers for input-less ops: one per shard of every hosting
// node (each shard collects the full complement). Every generator outbox
// flushed before this: barrier counting is independent of GenWorkers.
func (e *Engine) emitSourceBarriers(pr *periodRun, final bool) {
	for si := range e.topo.sources {
		for _, op := range e.topo.srcEdges[si] {
			e.barrierWave(pr, op, final)
		}
	}
	for op, syn := range pr.synthetic {
		if syn {
			e.barrierWave(pr, op, final)
		}
	}
}

func (e *Engine) barrierWave(pr *periodRun, op int, final bool) {
	for _, host := range pr.rt.hosts[op] {
		for i := 0; i < e.spn; i++ {
			e.deliver(host*e.spn+i, barrierMsg{op: op, period: pr.period, more: !final})
		}
	}
}
