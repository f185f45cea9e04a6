package engine

import (
	"repro/internal/core"
)

// Checkpoint-assisted migration (the integrative state-transfer path).
//
// Every staged move runs at the boundary that stages it. A move of a
// checkpointed key group is a delta transfer exactly when the group's tip is
// on the shard it leaves (tipNode) and the last barrier measured its delta
// against that tip smaller than its state (deltaPays); every other move ships
// the state whole. A delta transfer is one stateMsg: the delta of the live
// state against the source's tip, and the tip's encoding as the base (the
// bytes of its last base checkpoint, or encoded once) — unless the state
// outgrew the tip meanwhile, and then the state, whole. The destination
// applies the delta to the decoded base and keeps the base as the group's tip.
// The controller reads no store for it, so a checkpoint write still running
// never holds up a move. The base is the checkpoint fault tolerance already
// took: only the delta is synchronous work (MigratedDeltaBytes, charged to
// MigrationLatency); PrecopyBytes counts the base.

// stagedTransfer is one migration the current period executes: a plain
// direct state migration when deltaBase < 0, a checkpoint-assisted delta
// transfer against checkpoint version deltaBase otherwise.
type stagedTransfer struct {
	mv        core.Move
	deltaBase int
}

// deltaPays reports whether gid's delta against its tip is smaller than its
// state — the source's own rule (onMigrateOut), read off the numbers the last
// barrier took (or a checkpoint or recovery since, which leave the delta
// empty), so the source never cuts a delta only to discard it. A group without
// a reading is left to the source. Runs on the engine goroutine, the one
// writer of both fields.
func (e *Engine) deltaPays(gid int) bool {
	if e.last == nil || e.ckptDeltas == nil || e.ckptDeltas[gid] < 0 {
		return true
	}
	return e.ckptDeltas[gid] < e.last.StateBytes[gid]
}

// transferOf decides how a staged period-boundary move ships its group: by
// delta against the tip when the tip is where the group is and the delta
// pays, whole otherwise. A group that full-moved since its last checkpoint
// migrates whole until the next checkpoint gives it a tip again. Runs on the
// engine goroutine before the arm phase.
func (e *Engine) transferOf(mv core.Move) stagedTransfer {
	if e.tipNode != nil && e.tipNode[mv.Group] == mv.From && e.deltaPays(mv.Group) {
		return stagedTransfer{mv: mv, deltaBase: e.tipVer[mv.Group]}
	}
	return stagedTransfer{mv: mv, deltaBase: -1}
}
