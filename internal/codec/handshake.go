package codec

import (
	"bytes"
	"fmt"
	"math"
)

// Cluster handshake messages (see internal/transport): a worker process
// joining a cluster sends a Hello to the controller; the controller answers
// with a Welcome assigning the worker its peer id and the directory of the
// other workers; workers then complete the peer mesh with PeerHello on each
// direct link. Every message leads with a magic string and the wire-format
// generation, so version negotiation fails fast and loudly instead of
// letting two incompatible processes exchange garbage frames.
//
// Encodings are self-contained byte strings (the transport length-prefixes
// them). Each message is described once, by a wire method over a Wire that
// both encodes and decodes it; the exported Append/Decode pairs run it one
// way or the other. Decoding validates everything — magic, version,
// lengths, counts — because these are the first bytes a process ever accepts
// from the network.

const (
	// HandshakeMagic leads every handshake message.
	HandshakeMagic = "ALBN"
	// WireVersion is the wire-format generation this build speaks: v2 data
	// frames (FrameV2) plus the control-frame schema. A Hello carrying any
	// other value is rejected during the handshake. v3: the checkpoint
	// messages lost the fold (its directive flag, summary length and blob).
	// v4: a state transfer carries its checkpoint base, and the pre-copy
	// frame is gone. v5: the progress poll request is gone; a sub-period
	// reply is always a dense per-group reading. v6: the source shard decides
	// how a move ships (a migrate-out says only whether it must go whole), a
	// migration event carries the size of the tip it shipped instead of its
	// group, and a checkpoint summary entry lost its node and tip size. v7: a
	// segment boundary reads the cluster with the stats request; the
	// sub-period request and its reply are gone. v8: segments are gone: a
	// barrier always ends the period, a migrate-out never says whole and an
	// arm frame never resumes a period. v9: a provision carries no weight; an
	// added node has weight 1. Retiring a state's string registers and a
	// delta's string registers and counter deletions bumped nothing: no job's
	// operators ever filled those sections, their counts keep their bytes,
	// always 0, and a decoder rejects any other count.
	WireVersion = 9

	// handshake hardening bounds: no legitimate message approaches these.
	maxHandshakeAddr  = 1 << 10
	maxHandshakePeers = 1 << 16
	maxHandshakeMeta  = 64 << 20
)

// header carries what leads every handshake message: the magic, then the
// wire version, which a reader accepts only as this build's.
func header(w *Wire, version *byte, what string) {
	if !w.Reading {
		w.B = append(w.B, HandshakeMagic...)
	} else if bytes.HasPrefix(w.B, []byte(HandshakeMagic)) {
		w.B = w.B[len(HandshakeMagic):]
	} else {
		w.Fail(fmt.Errorf("codec: handshake magic missing"))
	}
	w.Byte(version)
	if w.Reading && w.Err == nil && *version != WireVersion {
		w.Fail(fmt.Errorf("codec: %s wire version %d, want %d", what, *version, WireVersion))
	}
}

// read decodes b whole into a message described by wire.
func read(b []byte, wire func(*Wire)) error {
	w := Wire{B: b, Reading: true}
	wire(&w)
	return w.Done()
}

// Hello is the first message of a joining worker: the wire version it
// speaks, its relative capacity weight (Section 4.3.1 heterogeneity; the
// controller records it for planning) and the address it listens on for
// direct worker-to-worker links.
type Hello struct {
	Wire   byte
	Weight float64
	Addr   string
}

func (h *Hello) wire(w *Wire) {
	header(w, &h.Wire, "hello")
	w.Float64(&h.Weight)
	if w.Reading && w.Err == nil && (!(h.Weight > 0) || math.IsInf(h.Weight, 1)) {
		w.Fail(fmt.Errorf("codec: hello capacity weight %v, want finite and > 0", h.Weight))
	}
	w.String(&h.Addr, maxHandshakeAddr)
}

// AppendHello encodes h.
func AppendHello(dst []byte, h Hello) []byte {
	w := Wire{B: dst}
	h.wire(&w)
	return w.B
}

// DecodeHello decodes and validates one Hello.
func DecodeHello(b []byte) (Hello, error) {
	var h Hello
	err := read(b, h.wire)
	return h, err
}

// PeerAddr is one directory entry of a Welcome.
type PeerAddr struct {
	ID   int
	Addr string
}

// Welcome is the controller's handshake reply: the worker's assigned peer
// id, the directory of every worker in the cluster (used to complete the
// peer mesh) and an opaque bootstrap payload (job spec) the engine layer
// interprets.
type Welcome struct {
	Wire byte
	Self int
	Dir  []PeerAddr
	Meta []byte
}

func (m *Welcome) wire(w *Wire) {
	header(w, &m.Wire, "welcome")
	w.Int(&m.Self, maxHandshakePeers)
	seen := map[int]bool{}
	n := w.Count(len(m.Dir), maxHandshakePeers)
	for i := 0; i < n && w.Err == nil; i++ {
		p := Elem(w, &m.Dir, i)
		w.Int(&p.ID, maxHandshakePeers)
		w.String(&p.Addr, maxHandshakeAddr)
		if w.Reading && w.Err == nil && seen[p.ID] {
			w.Fail(fmt.Errorf("codec: welcome dir lists peer %d twice", p.ID))
		}
		seen[p.ID] = true
	}
	w.Blob(&m.Meta, maxHandshakeMeta)
}

// AppendWelcome encodes w.
func AppendWelcome(dst []byte, w Welcome) []byte {
	wr := Wire{B: dst}
	w.wire(&wr)
	return wr.B
}

// DecodeWelcome decodes and validates one Welcome.
func DecodeWelcome(b []byte) (Welcome, error) {
	var w Welcome
	err := read(b, w.wire)
	return w, err
}

// PeerHello opens a direct worker-to-worker link: the dialing worker
// identifies itself so the accepting side can index the link.
type PeerHello struct {
	Wire byte
	Self int
}

func (p *PeerHello) wire(w *Wire) {
	header(w, &p.Wire, "peer hello")
	w.Int(&p.Self, maxHandshakePeers)
}

// AppendPeerHello encodes p.
func AppendPeerHello(dst []byte, p PeerHello) []byte {
	w := Wire{B: dst}
	p.wire(&w)
	return w.B
}

// DecodePeerHello decodes and validates one PeerHello.
func DecodePeerHello(b []byte) (PeerHello, error) {
	var p PeerHello
	err := read(b, p.wire)
	return p, err
}
