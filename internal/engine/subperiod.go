// Reactive sub-period reconfiguration. The paper's controller reacts once
// per statistics period; transient skew that appears early in a period goes
// unanswered until the next barrier. When Config.SubPeriods = K >= 2, the
// engine splits each period's source generation into K sub-intervals
// (measured in tuples, calibrated from the previous period's volume) and
// invokes a sub-period observer (SetSubObserver) at every sub-interval
// boundary with a snapshot of the period so far; the moves it returns are
// applied at once as "hot moves" — migrations that execute in the middle of
// the running period without waiting for the period barrier.
//
// Every boundary closes a segment of the period, and a hot move is a staged
// move at a segment boundary: there is one migration protocol (Engine.arm),
// and a period is one or more segments of it. The generator stops between two
// tuples, flushes the source outboxes and sends a barrier wave that is not
// final: shards propagate it and report completion exactly as at period end,
// but flush no operator. When the control goroutine has counted the wave's
// completions and every state shipped so far, the pipeline is drained: every
// tuple emitted before the boundary has been processed everywhere and no
// counter moves, so the statistics it reads there — with the period barrier's
// read, readStats — are exact and the same in every layout. It calls the
// observer, applies the moves to the allocation and arms
// the next segment the way beginPeriod arms a period (new router table,
// barrier counts, the destinations' awaitIn, acknowledged by every shard;
// statistics keep accumulating), asks the old hosts to ship and releases the
// generator. No tuple is ever in flight across a move, so no tuple is
// forwarded and a key's tuples reach its operator in the order they were sent,
// moved or not. The price is one pipeline drain and one arm per boundary,
// moves or not.
//
// Hot moves are restricted: the destination must already host the group's
// operator this period, the group must not be part of a staged
// period-boundary migration, and a group moves at most once per period. They
// always ship full state.
package engine

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
)

// SubObserver is the sub-period boundary hook: it receives the snapshot of
// the period so far, the 1-based period and the 1-based sub-interval index
// just completed, and returns the hot moves to apply now (nil for none). The
// snapshot is read the way the period barrier reads one (Engine.readStats):
// loads and communication accumulated since the period began,
// the current state sizes, and the current allocation, hot moves already
// applied included; it carries no checkpoint residency (HasCkpt is false).
// Loads are partial-period measurements: absolute percentages are lower than
// a full period's, but the ratios the trigger policy and the hot mover
// consume are unaffected. The read costs a boundary what it costs the
// barrier: the communication merge and the sizing of every state. The
// observer runs on the period's control goroutine — the goroutine that called
// RunPeriod or Run — with the pipeline drained and the generator waiting, so
// it stalls the whole period while it runs: keep it cheap.
type SubObserver func(snap *core.Snapshot, period, sub int) []core.Move

// SetSubObserver installs the sub-period boundary hook. It takes effect at
// the next period boundary. The engine must have been built with
// Config.SubPeriods >= 2, otherwise no boundaries ever fire.
func (e *Engine) SetSubObserver(fn SubObserver) {
	e.mu.Lock()
	e.subObserver = fn
	e.mu.Unlock()
}

// subBoundary is the generator's half of a sub-interval boundary, run on the
// generation goroutine between two tuples: every staged source outbox ships
// and a non-final barrier wave goes out behind them, closing the segment. The
// boundary then belongs to the control goroutine (finishPeriod,
// closeSegment); the generator waits until the next segment is armed.
func (e *Engine) subBoundary(pr *periodRun) {
	if pr.subObserver == nil || pr.over() {
		return // a period that has failed opens no further boundary
	}
	e.flushSrc(pr)
	e.emitSourceBarriers(pr, false)
	// done means the period failed while the boundary was open: the error is
	// finishPeriod's to return, and nobody reads segment or answers on resume
	// any more.
	select {
	case pr.segment <- struct{}{}:
	case <-pr.done:
		return
	}
	select {
	case <-pr.resume:
	case <-pr.done:
	}
}

// closeSegment is the control goroutine's half of a sub-interval boundary,
// run once the segment's non-final wave has passed every shard and every
// state shipped so far was reported: nothing is in flight and no counter
// moves. It reads the cluster as the period barrier does, consults the
// observer, applies the moves that pass safeHotMoves to the allocation and
// arms the next segment with them — also when none passes, because only
// arming resets the shards' barrier counts for the next wave. A worker that
// does not answer fails the boundary, and with it the period. Hot moves ship
// full state.
func (e *Engine) closeSegment(pr *periodRun) error {
	ps, err := e.readStats(pr)
	if err != nil {
		return err
	}
	e.mu.Lock()
	snap := e.snapshotOf(ps, nil)
	e.mu.Unlock()
	moves := pr.subObserver(snap, pr.period, pr.subIdx)
	e.mu.Lock()
	moves = e.safeHotMoves(pr, moves)
	for _, mv := range moves {
		e.groupNode[mv.Group] = mv.To // target tracks the new physical home
		pr.alloc[mv.Group] = mv.To    // so baseAlloc reflects it at period end
		pr.hotMoved[mv.Group] = true
	}
	e.mu.Unlock()
	pr.hotMoves += len(moves)
	e.arm(pr, moves, true)
	if pr.armFailed {
		return fmt.Errorf("engine: period %d arm failed at a segment boundary: %w", pr.period, errors.Join(pr.errs...))
	}
	return nil
}

// safeHotMoves keeps the moves that are valid and safe to run at this
// boundary; the rest are silently skipped (the observer may return a decision
// that no longer applies): a move must target an alive, non-draining node
// that already hosts the group's operator this period, must name the group's
// current physical host as From, and the group must be untouched by this
// period's staged migrations and earlier hot moves. e.mu must be held.
func (e *Engine) safeHotMoves(pr *periodRun, moves []core.Move) []core.Move {
	var batch []core.Move
	for _, mv := range moves {
		gid := mv.Group
		if gid < 0 || gid >= len(pr.alloc) {
			continue
		}
		from, to := pr.alloc[gid], mv.To
		if to == from || to < 0 || to >= len(e.nodes) || mv.From != from {
			continue
		}
		if e.removed[to] || e.killed[to] {
			continue
		}
		if pr.stagedGids[gid] || pr.hotMoved[gid] {
			continue
		}
		op, _ := e.topo.OpOf(gid)
		if !slices.Contains(pr.rt.hosts[op], to) {
			continue
		}
		if slices.ContainsFunc(batch, func(b core.Move) bool { return b.Group == gid }) {
			continue
		}
		batch = append(batch, core.Move{Group: gid, From: from, To: to})
	}
	return batch
}
