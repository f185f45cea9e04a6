package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/codec"
)

// TCP transport: every frame is uint32 big-endian length + payload over a
// persistent connection per link. The cluster forms in two phases:
//
//  1. discovery/handshake — workers dial the controller's listen address and
//     send a Hello (wire version, capacity weight, their own peer-listen
//     address); the controller assigns peer ids 1..N in join order and
//     answers each worker with a Welcome carrying the full worker directory
//     plus an opaque bootstrap payload (the job spec);
//  2. mesh completion — each worker dials every lower-id worker (PeerHello
//     identifies the dialer) and accepts links from every higher-id worker,
//     then reports ready to the controller. ClusterHost.Start returns only
//     when all workers are ready, so the first engine frame never races the
//     handshake.
//
// TCP preserves per-connection byte order and each link has a single writer
// lock, so the Endpoint's per-link FIFO contract holds by construction.

const (
	// maxTCPFrame bounds a received frame length: a corrupt or hostile
	// length prefix must not allocate unbounded memory.
	maxTCPFrame = 256 << 20
	// handshakeTimeout bounds every blocking step of cluster formation.
	handshakeTimeout = 60 * time.Second
)

// readyMsg is the worker's "mesh complete" report closing the handshake.
var readyMsg = []byte("RDY")

type tcpLink struct {
	peer int
	conn net.Conn
	wmu  sync.Mutex
	dead bool
}

type tcpEndpoint struct {
	self int
	recv chan Frame
	down chan int

	mu       sync.Mutex
	links    map[int]*tcpLink
	closed   bool
	downSent map[int]bool
}

func newTCPEndpoint(self int) *tcpEndpoint {
	return &tcpEndpoint{
		self:     self,
		recv:     make(chan Frame, 4096),
		down:     make(chan int, 64),
		links:    map[int]*tcpLink{},
		downSent: map[int]bool{},
	}
}

func (e *tcpEndpoint) addLink(peer int, conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn.SetDeadline(time.Time{})
	l := &tcpLink{peer: peer, conn: conn}
	e.mu.Lock()
	e.links[peer] = l
	e.mu.Unlock()
	go e.readLoop(l)
}

func (e *tcpEndpoint) Self() int { return e.self }

func (e *tcpEndpoint) Peers() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	var ids []int
	for id := range e.links {
		ids = append(ids, id)
	}
	return ids
}

func (e *tcpEndpoint) Send(peer int, data []byte) error {
	e.mu.Lock()
	l := e.links[peer]
	e.mu.Unlock()
	if l == nil {
		return errPeerDown(e.self, peer)
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.dead {
		return errPeerDown(e.self, peer)
	}
	if err := writeFrame(l.conn, data); err != nil {
		l.dead = true
		l.conn.Close()
		return fmt.Errorf("transport: send to peer %d: %w", peer, err)
	}
	codec.PutBuf(data)
	return nil
}

func (e *tcpEndpoint) readLoop(l *tcpLink) {
	for {
		data, err := readFrame(l.conn)
		if err != nil {
			l.wmu.Lock()
			l.dead = true
			l.wmu.Unlock()
			l.conn.Close()
			e.notifyDown(l.peer)
			return
		}
		e.recv <- Frame{Peer: l.peer, Data: data}
	}
}

func (e *tcpEndpoint) notifyDown(peer int) {
	e.mu.Lock()
	if e.closed || e.downSent[peer] {
		e.mu.Unlock()
		return
	}
	e.downSent[peer] = true
	e.mu.Unlock()
	select {
	case e.down <- peer:
	default:
	}
}

func (e *tcpEndpoint) Recv() <-chan Frame { return e.recv }
func (e *tcpEndpoint) Down() <-chan int   { return e.down }

func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	links := make([]*tcpLink, 0, len(e.links))
	for _, l := range e.links {
		links = append(links, l)
	}
	e.mu.Unlock()
	for _, l := range links {
		l.wmu.Lock()
		l.dead = true
		l.wmu.Unlock()
		l.conn.Close()
	}
	return nil
}

// writeFrame writes one length-prefixed frame.
func writeFrame(conn net.Conn, data []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	_, err := conn.Write(data)
	return err
}

// readFrame reads one length-prefixed frame into a pooled buffer.
func readFrame(conn net.Conn) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxTCPFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	buf := codec.GetBuf()
	if cap(buf) < int(n) {
		codec.PutBuf(buf)
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(conn, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ClusterHost is the controller's side of cluster formation between the
// discovery phase (ListenCluster + Accept) and mesh completion (Start).
type ClusterHost struct {
	ln     net.Listener
	conns  []net.Conn
	hellos []codec.Hello
}

// ListenCluster binds the controller's listen socket without accepting any
// joins yet. The split from Accept exists so a caller using an ephemeral
// port (":0") can learn the bound address (Addr) before its workers dial in.
func ListenCluster(addr string) (*ClusterHost, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &ClusterHost{ln: ln}, nil
}

// Accept runs the discovery phase on an already-listening host: it blocks
// until exactly `workers` joins have handshaken successfully, reading and
// validating each worker's Hello (wire-version negotiation happens here).
// The joining order determines peer ids: the i-th join becomes peer i+1.
func (h *ClusterHost) Accept(workers int) error {
	if workers <= 0 {
		h.abort()
		return fmt.Errorf("transport: cluster needs at least 1 worker")
	}
	ln := h.ln
	for len(h.conns) < workers {
		conn, err := ln.Accept()
		if err != nil {
			h.abort()
			return err
		}
		conn.SetDeadline(time.Now().Add(handshakeTimeout))
		raw, err := readFrame(conn)
		if err != nil {
			conn.Close()
			continue
		}
		hello, err := codec.DecodeHello(raw)
		codec.PutBuf(raw)
		if err != nil {
			// Version or format mismatch: reject this join loudly (the
			// worker sees the closed conn) but keep forming the cluster.
			conn.Close()
			continue
		}
		h.conns = append(h.conns, conn)
		h.hellos = append(h.hellos, hello)
	}
	return nil
}

// Addr returns the controller's bound listen address.
func (h *ClusterHost) Addr() string { return h.ln.Addr().String() }

// Hellos returns the workers' handshakes in peer-id order (index i is peer
// i+1): capacity weights and peer-listen addresses.
func (h *ClusterHost) Hellos() []codec.Hello { return h.hellos }

// Start completes cluster formation: each worker gets its Welcome (assigned
// id, full worker directory, its bootstrap meta), the call blocks until all
// workers report mesh-ready, and the controller endpoint (peer 0) is
// returned. metas must have one entry per worker (nil entries are fine).
func (h *ClusterHost) Start(metas [][]byte) (Endpoint, error) {
	if len(metas) != len(h.conns) {
		h.abort()
		return nil, fmt.Errorf("transport: %d metas for %d workers", len(metas), len(h.conns))
	}
	dir := make([]codec.PeerAddr, len(h.conns))
	for i, hello := range h.hellos {
		dir[i] = codec.PeerAddr{ID: i + 1, Addr: hello.Addr}
	}
	for i, conn := range h.conns {
		w := codec.Welcome{Wire: codec.WireVersion, Self: i + 1, Dir: dir, Meta: metas[i]}
		if err := writeFrame(conn, codec.AppendWelcome(codec.GetBuf(), w)); err != nil {
			h.abort()
			return nil, fmt.Errorf("transport: welcome to peer %d: %w", i+1, err)
		}
	}
	for i, conn := range h.conns {
		raw, err := readFrame(conn)
		if err != nil || string(raw) != string(readyMsg) {
			h.abort()
			return nil, fmt.Errorf("transport: peer %d never reported ready: %v", i+1, err)
		}
		codec.PutBuf(raw)
	}
	// Formation done: no further joins are accepted (scale-out provisions
	// nodes onto existing worker processes, not new processes).
	h.ln.Close()
	ep := newTCPEndpoint(0)
	for i, conn := range h.conns {
		ep.addLink(i+1, conn)
	}
	return ep, nil
}

func (h *ClusterHost) abort() {
	h.ln.Close()
	for _, c := range h.conns {
		c.Close()
	}
}

// JoinCluster is the worker's side: listen for peer links on listenAddr
// (":0" for ephemeral), dial the controller, handshake, complete the worker
// mesh, report ready. Returns the worker's endpoint and the controller's
// Welcome (assigned peer id + bootstrap meta).
func JoinCluster(ctrlAddr, listenAddr string, weight float64) (Endpoint, *codec.Welcome, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, nil, err
	}
	ctrl, err := net.DialTimeout("tcp", ctrlAddr, handshakeTimeout)
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	ctrl.SetDeadline(time.Now().Add(handshakeTimeout))
	hello := codec.Hello{Wire: codec.WireVersion, Weight: weight, Addr: ln.Addr().String()}
	if err := writeFrame(ctrl, codec.AppendHello(codec.GetBuf(), hello)); err != nil {
		ln.Close()
		ctrl.Close()
		return nil, nil, err
	}
	raw, err := readFrame(ctrl)
	if err != nil {
		ln.Close()
		ctrl.Close()
		return nil, nil, fmt.Errorf("transport: join rejected: %w", err)
	}
	welcome, err := codec.DecodeWelcome(raw)
	codec.PutBuf(raw)
	if err != nil {
		ln.Close()
		ctrl.Close()
		return nil, nil, err
	}

	ep := newTCPEndpoint(welcome.Self)
	fail := func(err error) (Endpoint, *codec.Welcome, error) {
		ln.Close()
		ctrl.Close()
		ep.Close()
		return nil, nil, err
	}
	// Dial every lower-id worker; accept links from every higher-id worker.
	expect := map[int]bool{}
	for _, p := range welcome.Dir {
		switch {
		case p.ID == welcome.Self:
		case p.ID < welcome.Self:
			conn, err := net.DialTimeout("tcp", p.Addr, handshakeTimeout)
			if err != nil {
				return fail(fmt.Errorf("transport: peer %d dial %s: %w", p.ID, p.Addr, err))
			}
			conn.SetDeadline(time.Now().Add(handshakeTimeout))
			ph := codec.PeerHello{Wire: codec.WireVersion, Self: welcome.Self}
			if err := writeFrame(conn, codec.AppendPeerHello(codec.GetBuf(), ph)); err != nil {
				conn.Close()
				return fail(fmt.Errorf("transport: peer %d hello: %w", p.ID, err))
			}
			ep.addLink(p.ID, conn)
		default:
			expect[p.ID] = true
		}
	}
	deadline := time.Now().Add(handshakeTimeout)
	for len(expect) > 0 {
		if tln, ok := ln.(*net.TCPListener); ok {
			tln.SetDeadline(deadline)
		}
		conn, err := ln.Accept()
		if err != nil {
			return fail(fmt.Errorf("transport: waiting for %d peer links: %w", len(expect), err))
		}
		conn.SetDeadline(time.Now().Add(handshakeTimeout))
		raw, err := readFrame(conn)
		if err != nil {
			conn.Close()
			continue
		}
		ph, err := codec.DecodePeerHello(raw)
		codec.PutBuf(raw)
		if err != nil || !expect[ph.Self] {
			// Unknown, duplicate or malformed join: drop the link, keep
			// waiting for the legitimate peers.
			conn.Close()
			continue
		}
		delete(expect, ph.Self)
		ep.addLink(ph.Self, conn)
	}
	ln.Close()
	if err := writeFrame(ctrl, append(codec.GetBuf(), readyMsg...)); err != nil {
		return fail(fmt.Errorf("transport: ready report: %w", err))
	}
	ep.addLink(0, ctrl)
	return ep, &welcome, nil
}
