package engine

import (
	"testing"

	"repro/internal/codec"
)

// TestReplyFromAnotherPeerLeavesRequestPending: a reply is matched by its
// request id and by the peer it came from. A frame from another peer that
// carries a pending request's id (misaddressed or corrupt) must leave the
// request pending, so the real peer's reply still reaches the waiter and the
// peer's death still fails it.
func TestReplyFromAnotherPeerLeavesRequestPending(t *testing.T) {
	r := newNetRig(nil, nil)
	ch := make(chan []byte, 1)
	r.pending[5] = netPending{peer: 1, ch: ch}
	reply := func(body string) []byte {
		w, id := codec.Wire{}, 5
		w.Int(&id, maxWireSeq)
		return append(w.B, body...)
	}

	r.handleReply(2, reply("stray"))
	if _, ok := r.pending[5]; !ok {
		t.Fatal("a reply from peer 2 removed the request pending toward peer 1")
	}
	select {
	case b := <-ch:
		t.Fatalf("a reply from peer 2 was delivered: %q", b)
	default:
	}

	r.handleReply(1, reply("answer"))
	if _, ok := r.pending[5]; ok {
		t.Fatal("peer 1's reply left its request pending")
	}
	if b := <-ch; string(b) != "answer" {
		t.Fatalf("delivered %q, want %q", b, "answer")
	}
}
