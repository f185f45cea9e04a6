package engine

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/codec"
	"repro/internal/transport"
)

// netRig is an engine's attachment to its transport.Endpoint. It owns what
// crosses processes: frame encoding/decoding (wire.go), the controller's
// request/reply channel and peer-death tracking.
// The engine's data path stays oblivious — Engine.deliver routes a mailbox
// message either to a hosted shard or through the rig, and the receiving
// dispatch loop puts the identical message into the owning shard's mailbox.
// With no worker peers (New) nothing is ever sent and the reader below idles
// until Close.
type netRig struct {
	e  *Engine
	ep transport.Endpoint

	mu      sync.Mutex
	dead    map[int]bool
	deadCh  chan struct{}
	nextReq int
	pending map[int]netPending
}

type netPending struct {
	peer int
	ch   chan []byte
}

func newNetRig(e *Engine, ep transport.Endpoint) *netRig {
	return &netRig{
		e:       e,
		ep:      ep,
		dead:    map[int]bool{},
		deadCh:  make(chan struct{}),
		pending: map[int]netPending{},
	}
}

// markDead records a peer's death: the channel lost hands out is closed (and
// replaced, so later waiters get a fresh one) and every request pending
// toward that peer fails.
func (r *netRig) markDead(peer int) {
	r.mu.Lock()
	if r.dead[peer] {
		r.mu.Unlock()
		return
	}
	r.dead[peer] = true
	close(r.deadCh)
	r.deadCh = make(chan struct{})
	var chans []chan []byte
	for id, p := range r.pending {
		if p.peer == peer {
			chans = append(chans, p.ch)
			delete(r.pending, id)
		}
	}
	r.mu.Unlock()
	for _, ch := range chans {
		close(ch)
	}
}

func (r *netRig) isDead(peer int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dead[peer]
}

// alivePeers lists every connected non-controller peer, ascending — the
// provision broadcast set (a drained worker still must extend its node
// table, or its slot ids desynchronize from the cluster's).
func (r *netRig) alivePeers() []int {
	var out []int
	for _, p := range r.ep.Peers() {
		if p != 0 && !r.isDead(p) {
			out = append(out, p)
		}
	}
	sort.Ints(out)
	return out
}

// lost reports whether one of peers is down, together with the channel the
// next peer death closes: a waiter that finds none lost selects on it, and —
// both readings being one critical section — misses no death in between.
func (r *netRig) lost(peers []int) (bool, <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range peers {
		if r.dead[p] {
			return true, r.deadCh
		}
	}
	return false, r.deadCh
}

// request performs one control-plane round trip to peer. It fails fast when
// the peer is (or dies while) pending — a dead worker must stall no control
// loop: markDead closes the channel of every request pending toward it.
func (r *netRig) request(peer int, q reqFrame) ([]byte, error) {
	r.mu.Lock()
	if r.dead[peer] {
		r.mu.Unlock()
		return nil, fmt.Errorf("engine: peer %d is down", peer)
	}
	r.nextReq++
	q.id = r.nextReq
	ch := make(chan []byte, 1)
	r.pending[q.id] = netPending{peer: peer, ch: ch}
	r.mu.Unlock()

	if err := r.ep.Send(peer, encode(frReq, &q)); err != nil {
		r.unpend(q.id)
		return nil, err
	}
	b, ok := <-ch
	if !ok {
		return nil, fmt.Errorf("engine: peer %d died during request", peer)
	}
	return b, nil
}

// requestAll issues a request to every one of peers at once — q(k) to
// peers[k] — and waits for all of them: bodies[k] and errs[k] are peers[k]'s
// reply. Only the round-trip latency runs in parallel; callers fold the
// replies in peer order. Without peers it allocates nothing.
func (r *netRig) requestAll(peers []int, q func(k int) reqFrame) ([][]byte, []error) {
	if len(peers) == 0 {
		return nil, nil
	}
	bodies, errs := make([][]byte, len(peers)), make([]error, len(peers))
	var wg sync.WaitGroup
	for k, peer := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[k], errs[k] = r.request(peer, q(k))
		}()
	}
	wg.Wait()
	return bodies, errs
}

func (r *netRig) unpend(id int) {
	r.mu.Lock()
	delete(r.pending, id)
	r.mu.Unlock()
}

func (r *netRig) handleReply(peer int, body []byte) {
	rd := codec.Wire{B: body, Reading: true}
	var id int
	if rd.Int(&id, maxWireSeq); rd.Err != nil {
		return
	}
	r.mu.Lock()
	p, ok := r.pending[id]
	if ok {
		delete(r.pending, id)
	}
	r.mu.Unlock()
	if ok && p.peer == peer {
		p.ch <- append([]byte(nil), rd.B...)
	}
}

// serve reads the endpoint until it closes, dispatch reports a bye, or the
// link to the controller drops (a worker cannot go on without one; the
// controller itself is never reported down). It is the one reader of every
// engine: the controller runs it on a goroutine from construction to Close,
// a worker's ServeWorker runs it on the caller's.
func (r *netRig) serve(dispatch func(transport.Frame) (bye bool)) error {
	for {
		select {
		case fr, ok := <-r.ep.Recv():
			if !ok || dispatch(fr) {
				return nil
			}
		case p := <-r.ep.Down():
			r.markDead(p)
			if p != 0 {
				continue
			}
			// The controller closes its links right after saying bye, so a bye
			// may be waiting beside this notice: what has already arrived is
			// dispatched before the loss counts as one.
			for {
				select {
				case fr, ok := <-r.ep.Recv():
					if !ok || dispatch(fr) {
						return nil
					}
				default:
					return fmt.Errorf("engine: controller link lost")
				}
			}
		}
	}
}

// dispatchControl handles one inbound frame on the controller (which is
// never told to shut down: bye is always false). An event that does not
// decode arrives as an error naming its peer: it fails the period instead of
// the controller.
func (r *netRig) dispatchControl(fr transport.Frame) (bye bool) {
	data := fr.Data
	if len(data) == 0 {
		codec.PutBuf(data)
		return false
	}
	kind, body := data[0], data[1:]
	switch kind {
	case frEvent:
		var ev engEvent
		if err := decode(body, &ev); err != nil {
			ev = engEvent{kind: evError, err: fmt.Errorf("engine: event from peer %d: %w", fr.Peer, err)}
		}
		r.e.events <- ev
	case frReply:
		r.handleReply(fr.Peer, body)
	case frBye, frArm, frReq:
		// Worker-bound frames; the controller never receives them.
	default:
		r.dispatchData(kind, body)
	}
	codec.PutBuf(data)
	return false
}

// dispatchData is the receiving half of Engine.deliver, the same on the
// controller and on a worker: it decodes one data-plane frame and puts its
// message into the addressed hosted shard's mailbox, a state transfer with
// the state and tip its bytes rebuild (stateMsg.unflatten). A frame that does
// not decode, or names an operator or key group the topology does not have,
// fails the period through the event path.
func (r *netRig) dispatchData(kind byte, body []byte) {
	gsid, msg, err := decodeMsgFrame(kind, body)
	if err == nil {
		if err = r.e.topo.checkMsg(msg); err != nil {
			if m, ok := msg.(dataBatchMsg); ok {
				codec.PutBuf(m.encoded)
			}
		} else if m, ok := msg.(stateMsg); ok {
			err = m.unflatten()
			msg = m
		}
		if err != nil {
			err = fmt.Errorf("engine: message frame kind %d: %w", kind, err)
		}
	}
	if err != nil {
		r.e.emit(engEvent{kind: evError, err: err})
		return
	}
	r.e.deliverLocal(gsid, msg, true)
}

// checkMsg bounds a data-plane message that crossed a wire against the
// topology, which the shard indexes its tables with unchecked: the operator
// of every message, and the key group of those that name one.
func (t *Topology) checkMsg(msg message) error {
	var op, kg int
	switch m := msg.(type) {
	case dataBatchMsg:
		op = m.op
	case barrierMsg:
		op = m.op
	case stateMsg:
		op, kg = m.op, m.kg
	case migrateOutMsg:
		op, kg = m.op, m.kg
	case recoverMsg:
		op, kg = m.op, m.kg
	}
	if op >= len(t.ops) {
		return fmt.Errorf("operator %d of %d", op, len(t.ops))
	}
	if kg >= t.ops[op].KeyGroups {
		return fmt.Errorf("key group %d of operator %d's %d", kg, op, t.ops[op].KeyGroups)
	}
	return nil
}

// deliverLocal puts a message into the owning hosted shard's mailbox.
// Messages for shards this process does not host (or whose mailbox closed)
// are dropped — the same semantics a put to a closed mailbox has — and a
// dropped data batch that owns a pooled buffer (dataBuf) returns it.
func (e *Engine) deliverLocal(gsid int, msg message, dataBuf bool) bool {
	node, sid := gsid/e.spn, gsid%e.spn
	ok := node < len(e.nodes) && e.nodes[node] != nil && sid < len(e.nodes[node].shards) &&
		e.nodes[node].shards[sid].mb.put(msg)
	if !ok && dataBuf {
		if m, isData := msg.(dataBatchMsg); isData {
			codec.PutBuf(m.encoded)
		}
	}
	return ok
}
