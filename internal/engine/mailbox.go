package engine

import (
	"sync"

	"repro/internal/statestore"
)

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
// or a source) has emitted everything it will toward operator op for
// `period`.
type barrierMsg struct {
	op     int
	period int
}

// stateMsg hands (op, kg)'s state over to the shard that now hosts it; part
// of direct state migration. st is the source's live state (nil: the group
// had none yet) and, for a delta move (the source's rule is onMigrateOut's),
// tip is the source's checkpoint tip, which travels with it. size is what
// the cost model charges the move synchronously: |σ|, or for a delta move
// |Δ| of st against tip (MigratedDeltaBytes, charged to MigrationLatency;
// PrecopyBytes counts the tip, the checkpoint fault tolerance already took).
//
// Inside one process the destination adopts st and tip as they are: nothing
// is encoded, decoded or copied, and the source keeps neither. Only a message
// that crosses a process has bytes, its wire form: flatten fills it in where
// encodeMsgFrame sends the message (encoded is st in storage order, or d, the
// delta, with the tip's encoding as base at baseVer) and unflatten rebuilds
// st and tip from it where the receiving process dispatches it (decode,
// CopyFrom, Apply). d is the source shard's scratch: flatten reads it inside
// Engine.deliver, and nothing reads it after.
type stateMsg struct {
	op, kg int
	st     *State
	tip    *statestore.Tip
	d      *statestore.Delta
	size   int

	encoded []byte
	delta   bool
	baseVer int
	base    []byte
}

// migrateOutMsg asks a node to ship (op, kg)'s state to dest (direct state
// migration, step "serialize and send"). The node decides whether a delta
// against its checkpoint tip goes instead (onMigrateOut).
type migrateOutMsg struct {
	op, kg, dest int
}

// stopMsg terminates the node goroutine.
type stopMsg struct{}

func (dataBatchMsg) isMessage()  {}
func (barrierMsg) isMessage()    {}
func (stateMsg) isMessage()      {}
func (migrateOutMsg) isMessage() {}
func (stopMsg) isMessage()       {}

// mailbox is an unbounded MPSC queue. Unboundedness removes any possibility
// of cross-node backpressure deadlock. Producers append one message per lock
// acquisition (put); the consumer takes ownership of the entire queued
// backlog per wakeup (drain) instead of locking once per message, and hands
// its spent buffer back so the producer side reuses it for the next backlog.
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
