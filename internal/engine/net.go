package engine

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/codec"
	"repro/internal/transport"
)

// netRig is an engine's attachment to a transport.Endpoint in distributed
// mode. It owns the cross-process concerns the in-memory engine never had:
// frame encoding/decoding (wire.go), the controller's request/reply channel,
// hot-move acknowledgements, and peer-death tracking. The engine's data path
// stays oblivious — Engine.deliver routes a mailbox message either to a
// local shard or through the rig, and the receiving dispatch loop puts the
// identical message into the owning shard's mailbox.
type netRig struct {
	e  *Engine
	ep transport.Endpoint

	// hotAcks carries destination-dispatch acknowledgements of hot-move
	// frames back to applyHotMoves (two-phase broadcast ordering).
	hotAcks chan hotAckEv

	mu      sync.Mutex
	dead    map[int]bool
	deadCh  chan struct{}
	nextReq int
	pending map[int]netPending
}

type hotAckEv struct{ peer, period int }

type netPending struct {
	peer int
	ch   chan []byte
}

func newNetRig(e *Engine, ep transport.Endpoint) *netRig {
	return &netRig{
		e:       e,
		ep:      ep,
		hotAcks: make(chan hotAckEv, 4096),
		dead:    map[int]bool{},
		deadCh:  make(chan struct{}),
		pending: map[int]netPending{},
	}
}

// markDead records a peer's death: the dead-signal channel is closed (and
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

// deadSignal returns the channel closed at the NEXT peer death. Re-fetch it
// on every wait iteration — each death replaces it.
func (r *netRig) deadSignal() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deadCh
}

// sendMsg ships one mailbox message to the dispatch loop of peer, addressed
// to shard gsid.
func (r *netRig) sendMsg(peer, gsid int, msg message) error {
	return r.ep.Send(peer, encodeMsgFrame(gsid, msg))
}

func (r *netRig) sendHotMove(peer, gsid int, m hotMoveMsg, ack bool) error {
	return r.ep.Send(peer, encodeHotMoveFrame(gsid, m, ack))
}

// request performs one control-plane round trip to peer. It fails fast when
// the peer is (or dies while) pending — a dead worker must stall no control
// loop.
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

	if err := r.ep.Send(peer, encodeReqFrame(q)); err != nil {
		r.unpend(q.id)
		return nil, err
	}
	for {
		select {
		case b, ok := <-ch:
			if !ok {
				return nil, fmt.Errorf("engine: peer %d died during request", peer)
			}
			return b, nil
		case <-r.deadSignal():
			if !r.isDead(peer) {
				continue // some other peer died; keep waiting
			}
			r.unpend(q.id)
			// The reply may have raced the death notification in.
			select {
			case b, ok := <-ch:
				if ok {
					return b, nil
				}
			default:
			}
			return nil, fmt.Errorf("engine: peer %d died during request", peer)
		}
	}
}

func (r *netRig) unpend(id int) {
	r.mu.Lock()
	delete(r.pending, id)
	r.mu.Unlock()
}

func (r *netRig) handleReply(peer int, body []byte) {
	rd := &wireReader{b: body}
	id := rd.int("reply id", 1<<40)
	if rd.err != nil {
		return
	}
	r.mu.Lock()
	p, ok := r.pending[id]
	if ok {
		delete(r.pending, id)
	}
	r.mu.Unlock()
	if ok && p.peer == peer {
		p.ch <- append([]byte(nil), rd.b...)
	}
}

// runController starts the controller's reader goroutines: one draining
// inbound frames (worker events, replies, hot-move acks), one watching for
// peer deaths.
func (r *netRig) runController() {
	go func() {
		for p := range r.ep.Down() {
			r.markDead(p)
		}
	}()
	go func() {
		for fr := range r.ep.Recv() {
			r.dispatchControl(fr)
		}
	}()
}

// dispatchControl handles one inbound frame on the controller.
func (r *netRig) dispatchControl(fr transport.Frame) {
	data := fr.Data
	if len(data) == 0 {
		codec.PutBuf(data)
		return
	}
	kind, body := data[0], data[1:]
	switch kind {
	case frEvent:
		if ev, err := decodeEventFrame(body); err == nil {
			r.e.events <- ev
		}
	case frReply:
		r.handleReply(fr.Peer, body)
	case frHotAck:
		rd := &wireReader{b: body}
		period := rd.int("hot ack period", 1<<40)
		if rd.err == nil {
			select {
			case r.hotAcks <- hotAckEv{peer: fr.Peer, period: period}:
			default:
				// Over-full only if acks arrive for moves nobody awaits;
				// dropping beats blocking the reader.
			}
		}
	default:
		// Data-plane frames toward controller-hosted shards (none in the
		// standard layout — the controller hosts no nodes — but the dispatch
		// is uniform so mixed layouts work).
		if d, err := decodeMsgFrame(kind, body); err == nil {
			r.e.deliverLocal(d.gsid, d.msg, d.dataBuf)
			if d.hotAck {
				if hm, ok := d.msg.(hotMoveMsg); ok {
					_ = r.ep.Send(fr.Peer, encodeHotAckFrame(hm.period))
				}
			}
		}
	}
	codec.PutBuf(data)
}

// deliverLocal puts a decoded message into the owning local shard's mailbox.
// Messages for shards this process does not host (or whose mailbox closed)
// are dropped — the same semantics a put to a closed mailbox has.
func (e *Engine) deliverLocal(gsid int, msg message, dataBuf bool) bool {
	node := gsid / e.spn
	if node < 0 || node >= len(e.nodes) || e.nodes[node] == nil || gsid%e.spn >= len(e.nodes[node].shards) {
		if dataBuf {
			if m, ok := msg.(dataBatchMsg); ok {
				codec.PutBuf(m.encoded)
			}
		}
		return false
	}
	ok := e.nodes[node].shards[gsid%e.spn].mb.put(msg)
	if !ok && dataBuf {
		if m, ok := msg.(dataBatchMsg); ok {
			codec.PutBuf(m.encoded)
		}
	}
	return ok
}
