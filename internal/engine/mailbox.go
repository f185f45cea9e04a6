package engine

import "sync"

// message is anything deliverable to a node's mailbox.
type message interface{ isMessage() }

// dataBatchMsg carries count tuples for operator op in one frame: a
// versioned codec batch (wire format v2 — leading version byte, per-frame
// field-name dictionary) of records, each record being uvarint(kg) followed
// by the encoded tuple. Cross-node deliveries pay serialization once per
// record but amortize the frame, the allocation (encoded comes from
// codec.GetBuf and is returned to the pool by the receiver once the whole
// batch — including the decoded tuples aliasing it — has been processed) and
// the mailbox lock over the whole batch.
type dataBatchMsg struct {
	op      int
	period  int
	count   int
	encoded []byte
	// local marks a frame between two shards of the same node: it rides the
	// same encoded path (per-sender FIFO through the mailbox) but counts
	// nothing toward wire bytes, frames or serialization cost — intra-node
	// traffic is modeled as free, keeping the cost model invariant to
	// Config.ShardsPerNode.
	local bool
}

// barrierMsg signals that sender instance (an upstream operator on one node,
// or a source) has emitted everything it will toward operator op before the
// next arm: everything for `period`, or — more set — everything for the
// segment of it that a sub-period boundary is closing. A shard treats both
// alike, except that a wave with more to come flushes no operator.
type barrierMsg struct {
	op     int
	period int
	more   bool
}

// stateMsg installs migrated state for (op, kg); part of direct state
// migration. encoded may be empty (group had no state yet). When delta is
// set, encoded is a statestore.Delta against the checkpoint version baseVer
// that was pre-copied to the receiver (checkpoint-assisted migration); the
// receiver reconstructs the state by applying it to its pre-copied base.
type stateMsg struct {
	op, kg  int
	encoded []byte
	delta   bool
	baseVer int
}

// migrateOutMsg asks a node to ship (op, kg)'s state to dest (direct state
// migration, step "serialize and send"). deltaBase >= 0 switches to
// checkpoint-assisted transfer: the destination holds the pre-copied
// checkpoint at that version, so the node ships only the delta of its live
// state against it.
type migrateOutMsg struct {
	op, kg, dest int
	deltaBase    int
}

// precopyMsg carries one background chunk of a checkpointed state toward a
// planned migration's destination (checkpoint-assisted migration; see
// precopy.go). It is pure background traffic: it takes no part in the
// barrier protocol and the receiver only accumulates bytes. With discard
// set, the session was abandoned (plan changed) and the receiver drops any
// buffered bytes for the group instead. With forward set it goes to the
// group's source instead, which holds the tip: the source sends on to the
// group's shard on node dest the chunk [off, off+n) of its tip's encoding at
// version (or the discard), behind whatever it sent there before.
type precopyMsg struct {
	op, kg  int
	version int
	total   int
	off     int
	chunk   []byte
	discard bool
	forward bool
	dest, n int
}

// stopMsg terminates the node goroutine.
type stopMsg struct{}

func (dataBatchMsg) isMessage()  {}
func (barrierMsg) isMessage()    {}
func (stateMsg) isMessage()      {}
func (migrateOutMsg) isMessage() {}
func (precopyMsg) isMessage()    {}
func (stopMsg) isMessage()       {}

// mailbox is an unbounded batch-oriented MPSC queue. Unboundedness removes
// any possibility of cross-node backpressure deadlock. Producers append one
// message (put) or a whole slice (putBatch) under a single lock acquisition;
// the consumer takes ownership of the entire queued backlog per wakeup
// (drain) instead of locking once per message, and hands its spent buffer
// back so the producer side reuses it for the next backlog.
//
// FIFO invariant: messages from one sender goroutine are delivered in send
// order, because each sender enqueues from a single goroutine and every
// enqueue appends atomically under the lock. The barrier protocol relies on
// exactly this: a sender's barrierMsg, enqueued after its last data batch,
// is drained after it. No ordering is guaranteed between different senders.
type mailbox struct {
	mu     sync.Mutex
	nonEmp *sync.Cond
	q      []message
	spare  []message // recycled consumer buffer, becomes the next q
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.nonEmp = sync.NewCond(&m.mu)
	return m
}

// put enqueues one message. Puts after close are dropped; the false return
// tells the sender the consumer is gone (the engine uses this at arm time to
// detect a crashed shard instead of waiting forever for its ack).
func (m *mailbox) put(msg message) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	if len(m.q) == 0 {
		m.nonEmp.Signal()
	}
	m.q = append(m.q, msg)
	m.mu.Unlock()
	return true
}

// putBatch enqueues a slice of messages under one lock acquisition,
// preserving slice order. Puts after close are dropped (reported like put).
// The slice is copied; the caller may reuse it.
func (m *mailbox) putBatch(msgs []message) bool {
	if len(msgs) == 0 {
		return true
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	if len(m.q) == 0 {
		m.nonEmp.Signal()
	}
	m.q = append(m.q, msgs...)
	m.mu.Unlock()
	return true
}

// drain blocks until messages are available (or the mailbox is closed and
// empty) and returns the whole backlog, transferring ownership to the
// caller. recycled is the caller's previous batch (element references already
// cleared); it becomes the queue's next append buffer. After close, drain
// first delivers any remaining backlog, then reports false.
func (m *mailbox) drain(recycled []message) ([]message, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if recycled != nil && m.spare == nil {
		m.spare = recycled[:0]
	}
	for len(m.q) == 0 && !m.closed {
		m.nonEmp.Wait()
	}
	if len(m.q) == 0 {
		return nil, false
	}
	batch := m.q
	m.q, m.spare = m.spare, nil
	return batch, true
}

// close wakes the consumer and rejects further puts.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.nonEmp.Broadcast()
	m.mu.Unlock()
}
