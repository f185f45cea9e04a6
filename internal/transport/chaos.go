package transport

import (
	"math/rand"
	"sync"
	"time"
)

// Chaos wraps any Endpoint with send-side fault injection:
//
//   - per-link delay/jitter: every frame toward a peer is held for
//     Delay + [0, Jitter) before it enters the underlying transport;
//   - bounded stalls: every StallEvery-th frame on a link additionally
//     holds the link for StallFor (a burst of latency);
//   - a one-shot drop: after DropAfter frames have left this endpoint, the
//     whole endpoint closes — the transport-level equivalent of the process
//     dying mid-stream, which peers observe through Down.
//
// The crucial property is what Chaos does NOT do: frames toward one peer are
// delayed through a single per-link queue goroutine, so they enter the inner
// transport in Send order — per-link FIFO survives arbitrary delay
// schedules. Delay reorders traffic *across* links (exactly the hazard a
// real network has), never within one. The engine's barrier, migration and
// checkpoint protocols claim to tolerate precisely that; the chaos tests hold
// them to it.
type Chaos struct {
	inner Endpoint
	opt   ChaosOptions
	rng   *rand.Rand
	rmu   sync.Mutex

	mu     sync.Mutex
	queues map[int]*chaosQueue
	sent   int
	closed bool
}

// ChaosOptions configures the wrapper. Zero values disable each fault.
type ChaosOptions struct {
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

// WithChaos wraps ep.
func WithChaos(ep Endpoint, opt ChaosOptions) *Chaos {
	return &Chaos{
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

func (c *Chaos) Self() int          { return c.inner.Self() }
func (c *Chaos) Peers() []int       { return c.inner.Peers() }
func (c *Chaos) Recv() <-chan Frame { return c.inner.Recv() }
func (c *Chaos) Down() <-chan int   { return c.inner.Down() }

func (c *Chaos) Send(peer int, data []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errPeerDown(c.Self(), peer)
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
func (c *Chaos) pump(peer int, q *chaosQueue) {
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

func (c *Chaos) Close() error {
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
