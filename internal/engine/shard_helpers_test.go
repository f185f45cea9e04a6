package engine

// Test-only conveniences over the sharded node layout: before ShardsPerNode,
// a node held one states map; now each shard owns a slice of it. These merge
// the shards back into the pre-sharding view tests were written against.

// shardAt resolves a global shard id.
func (e *Engine) shardAt(gsid int) *shard {
	return e.nodes[gsid/e.spn].shards[gsid%e.spn]
}

// allStates merges every shard's resident states into one map.
func (n *node) allStates() map[int]*State {
	out := map[int]*State{}
	for _, sh := range n.shards {
		for gid, st := range sh.states {
			if st != nil {
				out[gid] = st
			}
		}
	}
	return out
}

// stateOf returns the node's resident state for gid (nil if absent),
// whichever shard holds it.
func (n *node) stateOf(gid int) *State {
	for _, sh := range n.shards {
		if st := sh.states[gid]; st != nil {
			return st
		}
	}
	return nil
}
