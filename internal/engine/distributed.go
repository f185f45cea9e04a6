package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/codec"
	"repro/internal/statestore"
	"repro/internal/transport"
)

// Construction. An engine is always one process of a cluster behind a
// transport.Endpoint: the controller (peer 0 — runs the control loop, the
// sources, planning and checkpointing, and hosts the node slots mapped to
// peer 0) or a worker (hosts the node slots mapped to its peer id and serves
// the controller via ServeWorker). peerOf maps every node slot to the peer
// that hosts it; it must be identical on every process (the bootstrap ships
// it in the join handshake's metadata). New builds the layout with no
// workers: a controller on a one-endpoint in-memory network that hosts every
// node, so each loop over worker peers below runs zero times.
//
// One thing stays local-first in every layout, because it decides what a
// period costs: deliver puts a message for a hosted shard straight into its
// mailbox (no frame is encoded). The barrier fold and the checkpoint are the
// same code in every process (foldLocal, cutCheckpoint); only how their results
// reach the controller differs — a return value or a reply frame.

// New builds a single-process engine for a topology: the controller of a
// cluster with no workers. The topology must have been Built. Key groups
// start allocated round-robin across nodes unless initial is given (len
// NumGroups).
func New(topo *Topology, cfg Config, initial []int) (*Engine, error) {
	cfg.defaults()
	ep := transport.NewMemCluster(0)[0]
	e, err := NewDistributed(topo, cfg, initial, ep, make([]int, cfg.Nodes))
	if err != nil {
		ep.Close()
	}
	return e, err
}

// NewDistributed builds the controller engine of a cluster. ep must be the
// controller endpoint (Self() == 0); peerOf[i] names the peer hosting node
// slot i.
func NewDistributed(topo *Topology, cfg Config, initial []int, ep transport.Endpoint, peerOf []int) (*Engine, error) {
	if ep.Self() != 0 {
		return nil, fmt.Errorf("engine: controller endpoint has peer id %d, want 0", ep.Self())
	}
	e, err := newEngine(topo, cfg, initial, ep, peerOf)
	if err != nil {
		return nil, err
	}
	go e.rig.serve(e.rig.dispatchControl) //nolint:errcheck // ends when Close closes the endpoint
	return e, nil
}

// NewWorker builds a worker engine of a multi-process cluster. ep must be a
// worker endpoint (Self() != 0). The caller runs ServeWorker.
func NewWorker(topo *Topology, cfg Config, initial []int, ep transport.Endpoint, peerOf []int) (*Engine, error) {
	if ep.Self() == 0 {
		return nil, fmt.Errorf("engine: worker endpoint has peer id 0")
	}
	return newEngine(topo, cfg, initial, ep, peerOf)
}

func newEngine(topo *Topology, cfg Config, initial []int, ep transport.Endpoint, peerOf []int) (*Engine, error) {
	if !topo.built {
		if err := topo.Build(); err != nil {
			return nil, err
		}
	}
	cfg.defaults()
	e := &Engine{
		topo:       topo,
		cfg:        cfg,
		removed:    make([]bool, cfg.Nodes),
		killed:     make([]bool, cfg.Nodes),
		weights:    make([]float64, cfg.Nodes),
		invWeights: make([]float64, cfg.Nodes),
		capacity:   1000,
		events:     make(chan engEvent, 16384),
		self:       ep.Self(),
		peerOf:     append([]int(nil), peerOf...),
	}
	if len(peerOf) != cfg.Nodes {
		return nil, fmt.Errorf("engine: %d node-peer entries for %d nodes", len(peerOf), cfg.Nodes)
	}
	if cfg.ShardsPerNode > 256 {
		return nil, fmt.Errorf("engine: %d shards per node, at most 256", cfg.ShardsPerNode)
	}
	for i := range e.weights {
		e.weights[i] = 1
		e.invWeights[i] = 1
	}
	if cfg.CapacityWeights != nil {
		if len(cfg.CapacityWeights) != cfg.Nodes {
			return nil, fmt.Errorf("engine: %d capacity weights for %d nodes", len(cfg.CapacityWeights), cfg.Nodes)
		}
		for i, w := range cfg.CapacityWeights {
			if !(w > 0) || math.IsInf(w, 1) {
				return nil, fmt.Errorf("engine: node %d capacity weight %g", i, w)
			}
			e.weights[i] = w
			e.invWeights[i] = 1 / w
		}
	}
	if initial != nil {
		if len(initial) != topo.NumGroups() {
			return nil, fmt.Errorf("engine: initial allocation has %d entries, want %d", len(initial), topo.NumGroups())
		}
		for _, n := range initial {
			if n < 0 || n >= cfg.Nodes {
				return nil, fmt.Errorf("engine: initial allocation references node %d", n)
			}
		}
		e.groupNode = append([]int(nil), initial...)
	} else {
		e.groupNode = make([]int, topo.NumGroups())
		for g := range e.groupNode {
			e.groupNode[g] = g % cfg.Nodes
		}
	}
	e.baseAlloc = append([]int(nil), e.groupNode...)
	e.spn = cfg.ShardsPerNode
	e.shardIdx = make([]uint8, topo.NumGroups())
	if e.spn > 1 {
		// Hash, not gid % spn: the default allocation strides gids across
		// nodes (gid % Nodes), and a modulo shard split would collapse all of
		// a node's groups onto one shard whenever the two strides align.
		for g := range e.shardIdx {
			e.shardIdx[g] = uint8(mix64(uint64(g)) % uint64(e.spn))
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		if !e.hostsNode(i) {
			e.nodes = append(e.nodes, nil)
			continue
		}
		n := newNode(i, e)
		e.nodes = append(e.nodes, n)
		n.start()
	}
	e.rig = newNetRig(e, ep)
	return e, nil
}

// hostsNode reports whether node slot i runs in this process.
func (e *Engine) hostsNode(i int) bool {
	return i < len(e.peerOf) && e.peerOf[i] == e.self
}

// peerFor returns the peer hosting node slot i (e.self for local slots).
func (e *Engine) peerFor(i int) int {
	if i >= len(e.peerOf) {
		return e.self
	}
	return e.peerOf[i]
}

// workerPeers returns the distinct non-controller peers hosting at least one
// alive node, ascending.
func (e *Engine) workerPeers() []int {
	var peers []int // stays nil, and allocates nothing, when every slot is hosted here
	for i := range e.nodes {
		if p := e.peerFor(i); !e.removed[i] && p != e.self {
			peers = append(peers, p)
		}
	}
	slices.Sort(peers)
	return slices.Compact(peers)
}

// deliver routes one mailbox message to shard gsid, wherever it runs: a
// local shard takes it through its mailbox, a remote one through an encoded
// frame that the owning process's dispatch loop re-enqueues — shard code
// sees identical messages either way. Returns false when the shard is gone
// (closed mailbox or dead peer), matching mailbox.put semantics.
func (e *Engine) deliver(gsid int, msg message) bool {
	node := gsid / e.spn
	if e.hostsNode(node) {
		return e.deliverLocal(gsid, msg, false)
	}
	peer := e.peerFor(node)
	var err error
	if e.rig.isDead(peer) {
		err = fmt.Errorf("engine: peer %d is down", peer)
	} else {
		err = e.rig.ep.Send(peer, encodeMsgFrame(gsid, msg))
	}
	if m, ok := msg.(dataBatchMsg); ok {
		// The frame copied the payload; the staged batch buffer is spent.
		codec.PutBuf(m.encoded)
	}
	return err == nil
}

// emit reports one engine event: workers encode it toward the controller,
// the controller consumes it in process.
func (e *Engine) emit(ev engEvent) {
	if e.self != 0 {
		_ = e.rig.ep.Send(0, encode(frEvent, &ev))
		return
	}
	e.events <- ev
}

// remoteWrite is one worker's share of a checkpoint write on the controller:
// the entries of its cut's summary and which of them TakeCheckpoint admitted,
// which fetchCkptWrite fills with the payloads once they arrive, keeping the
// admitted ones that check out.
type remoteWrite struct {
	peer     int
	entries  []ckptEntryWire
	admitted []bool
	// err is what did not check out; done is closed once the reply is in, or
	// the worker is dead.
	err  error
	done chan struct{}
}

// fetchCkptWrite asks a worker for the payloads of its write and checks them
// off the barrier: they crossed a wire, so each must match its summary entry
// and decode as the step it claims (checkCkptPayload); the store appends them
// byte for byte at the join. A worker that dies first leaves nothing to
// record: its groups keep their previous checkpoint.
func (e *Engine) fetchCkptWrite(rw *remoteWrite) {
	defer close(rw.done)
	body, err := e.rig.request(rw.peer, reqFrame{kind: rqCkptWrite})
	if err != nil || len(rw.entries) == 0 {
		rw.entries = nil
		return
	}
	err = decode(body, ckptPayloads(rw.entries))
	codec.PutBuf(body)
	if err != nil {
		rw.entries, rw.err = nil, fmt.Errorf("engine: checkpoint payloads from peer %d: %w", rw.peer, err)
		return
	}
	var d statestore.Delta
	var errs []error
	kept := rw.entries[:0]
	for i, en := range rw.entries {
		if !rw.admitted[i] {
			continue
		}
		if err := checkCkptPayload(en, &d); err != nil {
			errs = append(errs, err)
			continue
		}
		kept = append(kept, en)
	}
	rw.entries, rw.err = kept, errors.Join(errs...)
}

// checkCkptPayload checks that a worker's payload decodes as the step its
// entry claims (a state is checked without being built,
// statestore.CheckState); d is scratch.
func checkCkptPayload(en ckptEntryWire, d *statestore.Delta) error {
	switch en.step {
	case statestore.StepBase:
		if err := statestore.CheckState(en.payload); err != nil {
			return fmt.Errorf("engine: checkpoint state for group %d: %w", en.gid, err)
		}
	case statestore.StepDelta:
		if rest, err := statestore.DecodeDeltaInto(en.payload, d); err != nil || len(rest) != 0 {
			return fmt.Errorf("engine: checkpoint delta for group %d: %v (%d trailing)", en.gid, err, len(rest))
		}
	}
	return nil
}
