package engine

import "repro/internal/statestore"

// State handling lives in internal/statestore (the versioned incremental
// store that checkpointing and migration share); the engine re-exports the
// state type so operators and the public API are unaffected by the move.

// State is the computation state σ_k of one key group: scalar counters and
// named tables. It is what direct state migration serializes and ships, and
// what the checkpoint store versions. An operator adds to counters and writes
// and clears tables; a counter is never deleted, and ClearTable is the only
// removal (see statestore.State).
type State = statestore.State

// Table is one named table of a State: an open-addressed hash from cell key
// to float64 (see statestore.Table).
type Table = statestore.Table
