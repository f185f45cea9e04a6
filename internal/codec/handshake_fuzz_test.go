package codec

import (
	"math"
	"reflect"
	"testing"
)

// FuzzHandshake feeds arbitrary bytes to all three handshake decoders —
// the exact bytes a hostile or corrupt joiner could put on the discovery
// socket. Laws:
//
//  1. no decoder panics, whatever the input;
//  2. a successful decode yields a validated message (version negotiated,
//     weight finite and positive, ids and lengths within the hardening bounds);
//  3. decode∘encode is the identity on decoded messages (re-encoding what
//     was decoded and decoding again reproduces it — the codec never
//     launders an invalid message into a valid one).
func FuzzHandshake(f *testing.F) {
	// Well-formed messages.
	f.Add(AppendHello(nil, Hello{Wire: WireVersion, Weight: 1, Addr: "127.0.0.1:7071"}))
	f.Add(AppendHello(nil, Hello{Wire: WireVersion, Weight: 2.5, Addr: ""}))
	f.Add(AppendWelcome(nil, Welcome{Wire: WireVersion, Self: 1, Dir: []PeerAddr{{ID: 1, Addr: "a:1"}, {ID: 2, Addr: "b:2"}}, Meta: []byte(`{"job":"rj2"}`)}))
	f.Add(AppendWelcome(nil, Welcome{Wire: WireVersion, Self: 2}))
	f.Add(AppendPeerHello(nil, PeerHello{Wire: WireVersion, Self: 3}))
	// Malformed shapes the handshake must reject, not crash on. hdr is a
	// well-formed lead: the magic and this build's version.
	hdr := func() []byte { return append([]byte(HandshakeMagic), WireVersion) }
	f.Add([]byte{})
	f.Add([]byte("ALBN"))                   // magic only
	f.Add([]byte("ALBX\x02"))               // wrong magic
	f.Add([]byte{'A', 'L', 'B', 'N', 0x01}) // wrong wire version
	bad := AppendHello(nil, Hello{Wire: WireVersion, Weight: 1, Addr: "x"})
	f.Add(bad[:len(bad)-1])                                                                // truncated addr
	f.Add(AppendString(append(hdr(), AppendFloat64(nil, math.NaN())...), "x"))             // NaN weight
	f.Add(AppendString(append(hdr(), AppendFloat64(nil, -1)...), "x"))                     // negative weight
	f.Add(AppendString(append(hdr(), AppendFloat64(nil, math.Inf(1))...), "x"))            // +Inf weight
	f.Add(append(append(hdr(), 0x01), AppendUvarint(nil, 1<<20)...))                       // dir count over bound
	f.Add(append(hdr(), AppendUvarint(nil, uint64(maxHandshakePeers)+1)...))               // self id over bound
	f.Add(AppendString(append(hdr(), AppendFloat64(nil, 1)...), string(make([]byte, 64)))) // long addr

	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := DecodeHello(data); err == nil {
			if h.Wire != WireVersion || !(h.Weight > 0) || math.IsInf(h.Weight, 1) || len(h.Addr) > 1<<10 {
				t.Fatalf("DecodeHello accepted invalid %+v", h)
			}
			h2, err := DecodeHello(AppendHello(nil, h))
			if err != nil || h2 != h {
				t.Fatalf("hello round-trip: %+v -> %+v (%v)", h, h2, err)
			}
		}
		if w, err := DecodeWelcome(data); err == nil {
			if w.Wire != WireVersion || w.Self < 0 || w.Self > maxHandshakePeers || len(w.Dir) > maxHandshakePeers {
				t.Fatalf("DecodeWelcome accepted invalid %+v", w)
			}
			w2, err := DecodeWelcome(AppendWelcome(nil, w))
			if err != nil || !reflect.DeepEqual(normWelcome(w2), normWelcome(w)) {
				t.Fatalf("welcome round-trip: %+v -> %+v (%v)", w, w2, err)
			}
		}
		if p, err := DecodePeerHello(data); err == nil {
			if p.Wire != WireVersion || p.Self < 0 || p.Self > maxHandshakePeers {
				t.Fatalf("DecodePeerHello accepted invalid %+v", p)
			}
			p2, err := DecodePeerHello(AppendPeerHello(nil, p))
			if err != nil || p2 != p {
				t.Fatalf("peer hello round-trip: %+v -> %+v (%v)", p, p2, err)
			}
		}
	})
}

// normWelcome maps the two encodings of "no bytes" (nil / empty) to one
// form so DeepEqual compares content, not slice headers.
func normWelcome(w Welcome) Welcome {
	if len(w.Meta) == 0 {
		w.Meta = nil
	}
	if len(w.Dir) == 0 {
		w.Dir = nil
	}
	return w
}
