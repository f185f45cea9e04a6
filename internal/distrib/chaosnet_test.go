package distrib

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// chaosEndpoint wraps any Endpoint with send-side fault injection:
//
//   - per-link delay/jitter: every frame toward a peer is held for
//     Delay + [0, Jitter) before it enters the underlying transport;
//   - bounded stalls: every StallEvery-th frame on a link additionally
//     holds the link for StallFor (a burst of latency);
//   - a one-shot drop: after DropAfter frames have left this endpoint, the
//     whole endpoint closes — the transport-level equivalent of the process
//     dying mid-stream, which peers observe through Down.
//
// The crucial property is what the wrapper does NOT do: frames toward one
// peer are delayed through a single per-link queue goroutine, so they enter
// the inner transport in Send order — per-link FIFO survives arbitrary delay
// schedules. Delay reorders traffic *across* links (exactly the hazard a
// real network has), never within one. The engine's barrier, migration and
// checkpoint protocols claim to tolerate precisely that; the chaos tests hold
// them to it. The wrapper lives with the tests that use it:
// TestChaosFIFOUnderDelay and TestChaosDropAfterKillsEndpoint check it.
type chaosEndpoint struct {
	inner transport.Endpoint
	opt   chaosOptions
	rng   *rand.Rand
	rmu   sync.Mutex

	mu     sync.Mutex
	queues map[int]*chaosQueue
	sent   int
	closed bool
}

// chaosOptions configures the wrapper. Zero values disable each fault.
type chaosOptions struct {
	// Seed drives the jitter stream (deterministic runs).
	Seed int64
	// Delay is the fixed per-frame latency; Jitter adds [0, Jitter) more.
	Delay  time.Duration
	Jitter time.Duration
	// StallEvery > 0 stalls every n-th frame of a link by StallFor.
	StallEvery int
	StallFor   time.Duration
	// DropAfter > 0 closes the whole endpoint after that many frames have
	// been sent (one-shot link drop / process death).
	DropAfter int
}

// withChaos wraps ep.
func withChaos(ep transport.Endpoint, opt chaosOptions) *chaosEndpoint {
	return &chaosEndpoint{
		inner:  ep,
		opt:    opt,
		rng:    rand.New(rand.NewSource(opt.Seed)),
		queues: map[int]*chaosQueue{},
	}
}

type chaosQueue struct {
	mu     sync.Mutex
	nonEmp *sync.Cond
	q      []delayedFrame
	count  int
	closed bool
}

type delayedFrame struct {
	data    []byte
	dueTime time.Time
}

func (c *chaosEndpoint) Self() int                    { return c.inner.Self() }
func (c *chaosEndpoint) Peers() []int                 { return c.inner.Peers() }
func (c *chaosEndpoint) Recv() <-chan transport.Frame { return c.inner.Recv() }
func (c *chaosEndpoint) Down() <-chan int             { return c.inner.Down() }

func (c *chaosEndpoint) Send(peer int, data []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("chaos: peer %d unreachable from %d (endpoint closed)", peer, c.Self())
	}
	c.sent++
	drop := c.opt.DropAfter > 0 && c.sent >= c.opt.DropAfter
	q := c.queues[peer]
	if q == nil {
		q = &chaosQueue{}
		q.nonEmp = sync.NewCond(&q.mu)
		c.queues[peer] = q
		go c.pump(peer, q)
	}
	c.mu.Unlock()

	delay := c.opt.Delay
	if c.opt.Jitter > 0 {
		c.rmu.Lock()
		delay += time.Duration(c.rng.Int63n(int64(c.opt.Jitter)))
		c.rmu.Unlock()
	}
	q.mu.Lock()
	q.count++
	if c.opt.StallEvery > 0 && q.count%c.opt.StallEvery == 0 {
		delay += c.opt.StallFor
	}
	if len(q.q) == 0 {
		q.nonEmp.Signal()
	}
	q.q = append(q.q, delayedFrame{data: data, dueTime: time.Now().Add(delay)})
	q.mu.Unlock()

	if drop {
		// One-shot: the endpoint dies after this frame was accepted. Frames
		// already queued may or may not make it out — like a real crash.
		c.Close()
	}
	return nil
}

// pump delivers one link's frames to the inner transport in queue order,
// sleeping until each frame's due time. Because delivery is single-file,
// a later frame's shorter delay can never overtake an earlier frame —
// per-link FIFO by construction.
func (c *chaosEndpoint) pump(peer int, q *chaosQueue) {
	for {
		q.mu.Lock()
		for len(q.q) == 0 && !q.closed {
			q.nonEmp.Wait()
		}
		if len(q.q) == 0 && q.closed {
			q.mu.Unlock()
			return
		}
		fr := q.q[0]
		q.q = q.q[1:]
		q.mu.Unlock()
		if d := time.Until(fr.dueTime); d > 0 {
			time.Sleep(d)
		}
		// Send errors (inner endpoint or peer gone) drop the frame, exactly
		// like the raw transport reports them to a direct sender.
		_ = c.inner.Send(peer, fr.data)
	}
}

func (c *chaosEndpoint) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	queues := make([]*chaosQueue, 0, len(c.queues))
	for _, q := range c.queues {
		queues = append(queues, q)
	}
	c.mu.Unlock()
	for _, q := range queues {
		q.mu.Lock()
		q.closed = true
		q.nonEmp.Broadcast()
		q.mu.Unlock()
	}
	return c.inner.Close()
}

// frame builds a tiny numbered payload: sender id + sequence number.
func frame(sender, seq int) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint32(b, uint32(sender))
	binary.BigEndian.PutUint32(b[4:], uint32(seq))
	return b
}

func parseFrame(b []byte) (sender, seq int) {
	return int(binary.BigEndian.Uint32(b)), int(binary.BigEndian.Uint32(b[4:]))
}

// expectFIFO drains n frames from ep and asserts each sending peer's
// sequence numbers arrive strictly in order (the per-link FIFO contract);
// no ordering is asserted across peers.
func expectFIFO(t *testing.T, ep transport.Endpoint, n int) {
	t.Helper()
	next := map[int]int{}
	for i := 0; i < n; i++ {
		select {
		case fr := <-ep.Recv():
			sender, seq := parseFrame(fr.Data)
			if sender != fr.Peer {
				t.Fatalf("frame claims sender %d but arrived from peer %d", sender, fr.Peer)
			}
			if seq != next[sender] {
				t.Fatalf("peer %d: got seq %d, want %d (FIFO violated)", sender, seq, next[sender])
			}
			next[sender]++
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d of %d frames", i, n)
		}
	}
}

func TestChaosFIFOUnderDelay(t *testing.T) {
	eps := transport.NewMemCluster(2)
	chaotic := withChaos(eps[1], chaosOptions{
		Seed:       42,
		Delay:      50 * time.Microsecond,
		Jitter:     300 * time.Microsecond,
		StallEvery: 37,
		StallFor:   2 * time.Millisecond,
	})
	defer eps[0].Close()
	defer eps[2].Close()
	defer chaotic.Close()

	const n = 300
	go func() {
		for seq := 0; seq < n; seq++ {
			chaotic.Send(0, frame(1, seq)) //nolint:errcheck
			chaotic.Send(2, frame(1, seq)) //nolint:errcheck
		}
	}()
	expectFIFO(t, eps[0], n)
	expectFIFO(t, eps[2], n)
}

func TestChaosDropAfterKillsEndpoint(t *testing.T) {
	eps := transport.NewMemCluster(1)
	chaotic := withChaos(eps[1], chaosOptions{DropAfter: 10})
	defer eps[0].Close()

	for seq := 0; ; seq++ {
		if err := chaotic.Send(0, frame(1, seq)); err != nil {
			if seq < 10 {
				t.Fatalf("endpoint died after %d frames, DropAfter is 10", seq)
			}
			break
		}
		if seq > 1000 {
			t.Fatal("DropAfter never fired")
		}
	}
	select {
	case p := <-eps[0].Down():
		if p != 1 {
			t.Fatalf("down peer = %d, want 1", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("controller never observed the dropped endpoint")
	}
}
