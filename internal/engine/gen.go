package engine

import (
	"fmt"
)

// Source generation. The engine produces each period's input batch on the one
// generation goroutine RunPeriod starts beside the control goroutine: it runs
// the sources one after another through a single per-(dest, op) outbox set,
// so the sources are one sender and the per-sender FIFO invariant the shards
// rely on holds for every key. End-of-period source barriers go out after the
// last outbox has flushed: one barrier per source edge per receiving shard.

// genState is the generator's reusable emission scratch, hoisted onto the
// Engine so steady-state generation allocates nothing (visible in
// PeriodStats.Allocs). Outboxes are reusable across periods by construction:
// take() detaches the frame and begin() lazily starts a fresh one with a
// dictionary reset, so a reused outbox produces byte-identical frames. The
// counters are the period's; finishPeriod reads them once generation has
// returned.
type genState struct {
	outs    []*outbox // indexed by global shard id
	bytes   int64     // wire bytes staged this period (per-record sum)
	batches int64     // frames shipped this period
	stopped bool      // the period failed: drop what the sources still emit
}

// reset grows the outbox set to the current node-table width and zeroes the
// period's counters. Existing outboxes are kept — their dictionaries reset
// lazily on first use each period.
func (gs *genState) reset(width int) {
	if cap(gs.outs) < width {
		outs := make([]*outbox, width)
		copy(outs, gs.outs)
		gs.outs = outs
	} else {
		gs.outs = gs.outs[:width]
	}
	gs.bytes, gs.batches, gs.stopped = 0, 0, false
}

// flushGen ships one source outbox's staged frame, if any. A frame is also
// how often the generator looks at whether its period is still running: a
// source cannot be interrupted, so after a failure its tuples are dropped.
func (e *Engine) flushGen(pr *periodRun, destG int) {
	gs := &e.gen
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

// flushSrc ships every staged source outbox.
func (e *Engine) flushSrc(pr *periodRun) {
	for destG := range e.gen.outs {
		e.flushGen(pr, destG)
	}
}

// stageSrc routes one source tuple to every downstream operator of source si
// through the generator's outbox set.
func (e *Engine) stageSrc(pr *periodRun, si int, t *Tuple) {
	gs := &e.gen
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
			e.flushGen(pr, destG)
		}
		ob.op = op
		gs.bytes += int64(ob.stage(kg, t))
		if ob.full() {
			e.flushGen(pr, destG)
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

// generate runs the topology's sources for the period, one after another.
// The source barriers ship last.
func (e *Engine) generate(pr *periodRun) error {
	gs := &e.gen
	gs.reset(len(e.nodes) * e.spn)
	for si, src := range e.topo.sources {
		emit := func(t *Tuple) {
			if gs.stopped {
				return
			}
			e.stageSrc(pr, si, t)
		}
		if err := runSrc(src.Name, func() { src.Gen(pr.period, emit) }); err != nil {
			return err
		}
	}
	e.flushSrc(pr)
	if !pr.over() { // a failed period ends without a wave; finishPeriod has its error
		e.emitSourceBarriers(pr)
	}
	return nil
}

// emitSourceBarriers ships the sources' end-of-period barrier wave, then the
// synthetic barriers for input-less ops: one per shard of every hosting node
// (each shard collects the full complement). Every source outbox has flushed
// before this.
func (e *Engine) emitSourceBarriers(pr *periodRun) {
	for si := range e.topo.sources {
		for _, op := range e.topo.srcEdges[si] {
			e.barrierWave(pr, op)
		}
	}
	for op, syn := range pr.synthetic {
		if syn {
			e.barrierWave(pr, op)
		}
	}
}

func (e *Engine) barrierWave(pr *periodRun, op int) {
	for _, host := range pr.rt.hosts[op] {
		for i := 0; i < e.spn; i++ {
			e.deliver(host*e.spn+i, barrierMsg{op: op, period: pr.period})
		}
	}
}
