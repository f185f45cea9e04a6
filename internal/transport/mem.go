package transport

import (
	"fmt"
	"sync"
)

// MemNetwork is the in-memory transport: a full mesh of unbounded per-link
// queues between in-process endpoints. engine.New attaches its single-process
// engine to a network of one endpoint — a controller with no peers, over
// which nothing is ever sent — and with more endpoints the full
// multi-process protocol (controller + workers as separate engine instances)
// runs deterministically inside one test process; it is what the chaos
// wrapper of internal/distrib's tests wraps.
//
// Unboundedness mirrors the engine's mailboxes: no cross-peer backpressure
// deadlock is possible, which matters because endpoint consumers (the
// engines' dispatch loops) also send.
type MemNetwork struct {
	mu  sync.Mutex
	eps map[int]*memEndpoint
}

// NewMemNetwork builds an empty in-memory cluster.
func NewMemNetwork() *MemNetwork { return &MemNetwork{eps: map[int]*memEndpoint{}} }

// NewMemCluster builds a controller (peer 0) plus workers endpoints 1..n.
func NewMemCluster(workers int) []Endpoint {
	net := NewMemNetwork()
	eps := make([]Endpoint, workers+1)
	for i := range eps {
		eps[i] = net.Endpoint(i)
	}
	return eps
}

// Endpoint attaches peer id to the network (panics on duplicate ids —
// construction is test/driver code).
func (n *MemNetwork) Endpoint(id int) Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.eps[id] != nil {
		panic(fmt.Sprintf("transport: duplicate mem endpoint %d", id))
	}
	ep := &memEndpoint{
		net:  n,
		id:   id,
		recv: make(chan Frame, 1024),
		down: make(chan int, 64),
	}
	ep.nonEmp = sync.NewCond(&ep.mu)
	go ep.pump()
	n.eps[id] = ep
	return ep
}

type memEndpoint struct {
	net *MemNetwork
	id  int

	// Inbound queue: senders append under mu (each sender's appends are
	// ordered, so per-link FIFO holds); the pump goroutine drains to recv.
	// A slice queue + pump keeps Send non-blocking (unbounded), matching
	// the engine's mailbox semantics.
	mu     sync.Mutex
	nonEmp *sync.Cond
	q      []Frame
	closed bool

	recv chan Frame
	down chan int
}

func (e *memEndpoint) Self() int { return e.id }

func (e *memEndpoint) Peers() []int {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	var ids []int
	for id := range e.net.eps {
		if id != e.id {
			ids = append(ids, id)
		}
	}
	return ids
}

func (e *memEndpoint) Send(peer int, data []byte) error {
	e.net.mu.Lock()
	dst := e.net.eps[peer]
	e.net.mu.Unlock()
	if dst == nil {
		return errPeerDown(e.id, peer)
	}
	dst.mu.Lock()
	if dst.closed {
		dst.mu.Unlock()
		return errPeerDown(e.id, peer)
	}
	if len(dst.q) == 0 {
		dst.nonEmp.Signal()
	}
	dst.q = append(dst.q, Frame{Peer: e.id, Data: data})
	dst.mu.Unlock()
	return nil
}

func (e *memEndpoint) pump() {
	for {
		e.mu.Lock()
		for len(e.q) == 0 && !e.closed {
			e.nonEmp.Wait()
		}
		if e.closed && len(e.q) == 0 {
			e.mu.Unlock()
			close(e.recv)
			return
		}
		batch := e.q
		e.q = nil
		e.mu.Unlock()
		for _, fr := range batch {
			e.recv <- fr
		}
	}
}

func (e *memEndpoint) Recv() <-chan Frame { return e.recv }
func (e *memEndpoint) Down() <-chan int   { return e.down }

// Close detaches the endpoint: peers learn through their Down channel, and
// their subsequent Sends fail — the in-memory analogue of a process death.
func (e *memEndpoint) Close() error {
	e.net.mu.Lock()
	if e.net.eps[e.id] != e {
		e.net.mu.Unlock()
		return nil
	}
	delete(e.net.eps, e.id)
	peers := make([]*memEndpoint, 0, len(e.net.eps))
	for _, p := range e.net.eps {
		peers = append(peers, p)
	}
	e.net.mu.Unlock()

	e.mu.Lock()
	e.closed = true
	e.nonEmp.Broadcast()
	e.mu.Unlock()

	for _, p := range peers {
		p.notifyDown(e.id)
	}
	return nil
}

func (e *memEndpoint) notifyDown(peer int) {
	select {
	case e.down <- peer:
	default:
		// Down consumers are control loops that never lag 64 notifications
		// behind; dropping beyond that bound beats blocking a Close.
	}
}
