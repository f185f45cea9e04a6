// Package transport carries the engine's framed messages between the
// processes of a cluster. It is the seam that makes the engine's "nodes"
// real: the same v2 codec frames that always crossed node boundaries
// in-process now cross an Endpoint, whose implementations are an in-memory
// network (the default — every in-process test runs on it unchanged) and a
// length-prefixed TCP transport with node discovery and handshake. Both keep
// the one invariant the engine's barrier protocol needs: per-link FIFO.
// internal/distrib's tests wrap an Endpoint in a chaos wrapper that injects
// per-link delay, stalls and one-shot drops without violating it.
package transport

import "fmt"

// Frame is one received message: the sending peer and the frame bytes.
// Ownership of Data passes to the consumer, which should return it to the
// codec buffer pool (codec.PutBuf) once fully processed.
type Frame struct {
	Peer int
	Data []byte
}

// Endpoint is one process's attachment to the cluster. Peer 0 is the
// controller by convention; workers are 1..N.
//
// Contract:
//   - Send is safe for concurrent use and delivers frames to one peer in
//     call order (per-link FIFO — the invariant the engine's barrier
//     protocol is built on). Ownership of data passes to the transport.
//   - Recv yields every inbound frame; frames from one peer appear in the
//     order that peer sent them. No ordering holds across peers.
//   - Down yields the id of a peer whose link died (process exit, socket
//     error, Close), exactly once per peer.
//   - Send to a dead peer returns an error; the engine treats it like a put
//     to a closed mailbox (the message is dropped, the control plane
//     absorbs the loss at the next arm phase).
type Endpoint interface {
	Self() int
	Peers() []int
	Send(peer int, data []byte) error
	Recv() <-chan Frame
	Down() <-chan int
	Close() error
}

// errPeerDown is the uniform "link is gone" send failure.
func errPeerDown(self, peer int) error {
	return fmt.Errorf("transport: peer %d unreachable from %d (link down)", peer, self)
}
