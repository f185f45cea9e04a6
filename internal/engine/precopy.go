package engine

import (
	"repro/internal/core"
)

// Checkpoint-assisted migration (the integrative state-transfer path).
//
// A staged period-boundary move of a checkpointed key group does not ship
// the full state synchronously when a delta would do. A pre-copy session is
// opened for a move exactly when the group has a checkpoint, its tip is on the
// shard it leaves (tipNode), and the last barrier measured its delta against
// that tip smaller than its state (deltaPays) — the source's own rule for
// shipping a delta, so a base is pre-copied only where it will be read. Every
// other move ships the state whole, at once.
//
// In a session the group's last checkpoint (captured as one immutable
// encoded snapshot) is streamed to the destination in background chunks of at
// most Config.PrecopyChunkBytes per period boundary — a large state's
// pre-copy spans multiple period boundaries, and the move stays deferred (the
// group keeps running on its old host, the staged diff re-surfaces every
// boundary) until the final chunk has shipped. At that boundary the move
// executes with a delta transfer: the source diffs its live state against
// the checkpoint tip it holds — the captured snapshot, decoded — and ships
// only the delta (unless the state outgrew it meanwhile: then the state,
// and the destination drops the base); the destination applies it to the
// pre-copied base, which it keeps as the group's tip. Only the delta is
// synchronous — it is what MigratedDeltaBytes counts and what the
// MigrationLatency model charges.
//
// Ordering: chunks are enqueued by the engine goroutine during beginPeriod,
// strictly before the periodStartMsg that arms the period and therefore
// before the migrateOutMsg that triggers the source's delta stateMsg. The
// chain of mailbox handoffs (engine → source → destination) gives the
// destination's mailbox the final chunk ahead of the delta even when both
// happen at the same boundary.
//
// Concurrency: e.precopy and every session's fields belong to the engine
// goroutine alone (beginPeriod, Recover, between periods); shards see a
// session only as the chunks and the deltaBase their messages carry.

// precopySession is one in-flight checkpoint pre-copy.
type precopySession struct {
	gid, dest int
	// version is the checkpoint version captured in data; the delta at the
	// barrier is computed against exactly this snapshot.
	version int
	// data is the encoded checkpointed state (immutable once captured).
	data []byte
	// off is the volume already shipped.
	off int
	// consumedAt, when non-zero, is the period whose barrier executed the
	// delta move; the session is dropped at the next boundary.
	consumedAt int
}

// stagedTransfer is one migration the current period executes: a plain
// direct state migration when deltaBase < 0, a checkpoint-assisted delta
// transfer against checkpoint version deltaBase otherwise.
type stagedTransfer struct {
	mv        core.Move
	deltaBase int
}

// dropPrecopy abandons a session: the engine-side record is deleted and the
// destination is told to drop its partially pre-copied buffer (consumed
// sessions skip the notification — the delta transfer already cleared it;
// puts to removed destinations are silently dropped with their mailboxes).
func (e *Engine) dropPrecopy(s *precopySession) {
	delete(e.precopy, s.gid)
	if s.consumedAt > 0 {
		return
	}
	op, kg := e.topo.OpOf(s.gid)
	e.deliver(e.gsidFor(s.dest, s.gid), precopyMsg{op: op, kg: kg, discard: true})
}

// deltaPays reports whether gid's delta against its tip is smaller than its
// state: the rule by which the source ships one or the other (onMigrateOut),
// read one hop earlier off the numbers the last barrier took — the group's
// DiffSize(tip, live) and |σ|. Nothing changes them before the source decides,
// except what says so in ckptDeltas: a checkpoint or a recovery in between
// leaves the delta empty. Where the answer is no, a pre-copied base would be
// dropped unread at the destination and a delta cut to be discarded. A group
// without a reading is left to the source. Runs on the engine goroutine, the
// one writer of both fields.
func (e *Engine) deltaPays(gid int) bool {
	if e.last == nil || e.ckptDeltas == nil || e.ckptDeltas[gid] < 0 {
		return true
	}
	return e.ckptDeltas[gid] < e.last.StateBytes[gid]
}

// planTransfers decides, for every staged move of the period beginning now,
// whether it executes (and how) or defers behind a pre-copy. It ships this
// boundary's pre-copy chunks, advances sessions, and returns the executed
// transfers; deferred moves are removed from execution (the caller reverts
// the period's physical allocation for them). Runs on the engine goroutine
// before the arm phase.
func (e *Engine) planTransfers(pr *periodRun, staged []core.Move) []stagedTransfer {
	if len(staged) > 0 {
		// A move reads the store: the last checkpoint's write must be in it.
		e.joinCheckpoint()
	}
	// Sessions consumed at an earlier boundary have served their purpose;
	// sessions whose group is no longer part of the staged diff belong to an
	// abandoned plan. Drop both.
	if len(e.precopy) > 0 {
		stagedNow := map[int]bool{}
		for _, mv := range staged {
			stagedNow[mv.Group] = true
		}
		for _, s := range e.precopy {
			if (s.consumedAt > 0 && s.consumedAt < e.period) || !stagedNow[s.gid] {
				e.dropPrecopy(s)
			}
		}
	}

	transfers := make([]stagedTransfer, 0, len(staged))
	for _, mv := range staged {
		s := e.precopy[mv.Group]
		if s != nil && (s.dest != mv.To || s.consumedAt > 0 || e.ckpt == nil || s.version != e.ckpt.Version(s.gid)) {
			// The plan re-targeted the group, a consumed session lingered
			// from this very boundary (impossible by the cleanup above, but
			// cheap to guard), or a checkpoint advanced the store tip past the
			// captured snapshot mid-pre-copy. Start over — the source's tip moved
			// on with the store, so its delta would no longer fit the base the
			// destination holds.
			e.dropPrecopy(s)
			s = nil
		}
		if s == nil && e.ckpt != nil && e.ckpt.Has(mv.Group) &&
			e.tipNode != nil && e.tipNode[mv.Group] == mv.From && e.deltaPays(mv.Group) {
			// The tip-residency gate: the source cuts the delta against the tip
			// its shard holds, so the tip must be where the group is. A group
			// that full-moved since its last checkpoint migrates full until the
			// next checkpoint gives it a tip again.
			if enc, ver, ok := e.ckpt.EncodedState(mv.Group); ok {
				if e.precopy == nil {
					e.precopy = map[int]*precopySession{}
				}
				s = &precopySession{gid: mv.Group, dest: mv.To, version: ver, data: enc}
				e.precopy[mv.Group] = s
			}
		}
		if s == nil {
			// Cold group: classic direct state migration.
			transfers = append(transfers, stagedTransfer{mv: mv, deltaBase: -1})
			continue
		}
		remaining := len(s.data) - s.off
		chunk := e.cfg.PrecopyChunkBytes
		if chunk <= 0 || chunk > remaining {
			chunk = remaining
		}
		if chunk > 0 {
			op, kg := e.topo.OpOf(mv.Group)
			e.deliver(e.gsidFor(mv.To, mv.Group), precopyMsg{
				op: op, kg: kg,
				version: s.version,
				total:   len(s.data),
				off:     s.off,
				chunk:   s.data[s.off : s.off+chunk],
			})
			s.off += chunk
			pr.precopyBytes += int64(chunk)
		}
		if s.off == len(s.data) {
			// Fully resident at the destination: execute the move now with a
			// delta transfer against the captured checkpoint.
			s.consumedAt = e.period
			transfers = append(transfers, stagedTransfer{mv: mv, deltaBase: s.version})
		} else {
			pr.deferred++
		}
	}
	return transfers
}
