// Package distrib bootstraps a multi-process engine cluster. Topologies are
// built from Go closures and cannot cross a process boundary, so the unit of
// distribution is a JobSpec: a registered job name plus the exact workload
// and engine configurations. Every process — the controller and each
// albic-node worker — rebuilds the identical topology from the spec, and the
// spec rides to workers inside the join handshake's metadata, so a worker
// needs nothing but the controller's address to participate.
package distrib

import (
	"encoding/json"
	"fmt"

	"repro/internal/engine"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Jobs is the registry of distributable topologies, keyed by the names
// cmd/albic-run already uses.
var Jobs = map[string]func(workload.JobConfig) (*engine.Topology, error){
	"rj1": workload.RealJob1,
	"rj2": workload.RealJob2,
	"rj3": workload.RealJob3,
	"rj4": workload.RealJob4,
}

// JobSpec describes one distributed run completely: every process derives
// its engine from this spec and nothing else, which is what makes the
// in-memory and multi-process executions equivalent.
type JobSpec struct {
	// Job names a Jobs registry entry.
	Job string
	// Workload configures the topology builder (key groups, rate, seed, …).
	Workload workload.JobConfig
	// Engine is the engine configuration; Engine.Nodes must equal
	// len(NodePeers).
	Engine engine.Config
	// NodePeers maps every node slot to the transport peer hosting it
	// (peer 0 is the controller; workers are 1..N in join order).
	NodePeers []int
	// Initial is the optional initial key-group allocation.
	Initial []int `json:",omitempty"`
}

// Build rebuilds the spec's topology (each process needs its own instance —
// operator closures and sources are per-engine).
func (s *JobSpec) Build() (*engine.Topology, error) {
	build, ok := Jobs[s.Job]
	if !ok {
		return nil, fmt.Errorf("distrib: unknown job %q", s.Job)
	}
	return build(s.Workload)
}

// Validate checks the spec's internal consistency before any process is
// committed to it.
func (s *JobSpec) Validate(workers int) error {
	if _, ok := Jobs[s.Job]; !ok {
		return fmt.Errorf("distrib: unknown job %q", s.Job)
	}
	if len(s.NodePeers) != s.Engine.Nodes {
		return fmt.Errorf("distrib: %d node-peer entries for %d nodes", len(s.NodePeers), s.Engine.Nodes)
	}
	for i, p := range s.NodePeers {
		if p < 0 || p > workers {
			return fmt.Errorf("distrib: node %d mapped to peer %d (cluster has workers 1..%d)", i, p, workers)
		}
	}
	return nil
}

// EncodeSpec / DecodeSpec are the handshake-metadata wire form of a spec.
func EncodeSpec(s JobSpec) ([]byte, error) { return json.Marshal(s) }

func DecodeSpec(b []byte) (JobSpec, error) {
	var s JobSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("distrib: job spec: %w", err)
	}
	return s, nil
}

// DefaultPeers spreads `nodes` node slots round-robin across worker peers
// 1..workers — the standard layout in which the controller hosts no nodes.
func DefaultPeers(nodes, workers int) []int {
	peers := make([]int, nodes)
	for i := range peers {
		peers[i] = 1 + i%workers
	}
	return peers
}

// StartTCP runs the controller side of a TCP cluster: it listens on addr,
// waits for `workers` albic-node processes to join, derives capacity weights
// from their handshakes, ships everyone the spec, and returns the controller
// engine once the full mesh is up. The returned engine drives periods exactly
// like a single-process one (internal/controller needs no changes).
func StartTCP(addr string, workers int, spec JobSpec) (*engine.Engine, error) {
	host, err := transport.ListenCluster(addr)
	if err != nil {
		return nil, err
	}
	return StartHost(host, workers, spec)
}

// StartHost is StartTCP on an already-listening host (transport.
// ListenCluster) — the caller has read host.Addr() and can point workers at
// it before this call blocks waiting for them to join.
func StartHost(host *transport.ClusterHost, workers int, spec JobSpec) (*engine.Engine, error) {
	if err := spec.Validate(workers); err != nil {
		return nil, err
	}
	if err := host.Accept(workers); err != nil {
		return nil, err
	}
	// A worker announcing a non-unit weight makes the cluster heterogeneous:
	// every node slot it hosts inherits its weight. This must be decided
	// before the spec ships — all processes must agree on the weights.
	if spec.Engine.CapacityWeights == nil {
		hellos := host.Hellos()
		hetero := false
		for _, h := range hellos {
			if h.Weight != 1 {
				hetero = true
			}
		}
		if hetero {
			w := make([]float64, len(spec.NodePeers))
			for i, p := range spec.NodePeers {
				w[i] = 1
				if p >= 1 && p <= len(hellos) {
					w[i] = hellos[p-1].Weight
				}
			}
			spec.Engine.CapacityWeights = w
		}
	}
	meta, err := EncodeSpec(spec)
	if err != nil {
		return nil, err
	}
	metas := make([][]byte, workers)
	for i := range metas {
		metas[i] = meta
	}
	ep, err := host.Start(metas)
	if err != nil {
		return nil, err
	}
	topo, err := spec.Build()
	if err != nil {
		ep.Close()
		return nil, err
	}
	e, err := engine.NewDistributed(topo, spec.Engine, spec.Initial, ep, spec.NodePeers)
	if err != nil {
		ep.Close()
		return nil, err
	}
	return e, nil
}

// RunWorker runs one albic-node worker to completion: join the controller at
// ctrlAddr, rebuild the spec'd topology, and serve until the controller says
// bye or its link drops. weight is this worker's capacity weight (1 = the
// baseline node).
func RunWorker(ctrlAddr, listenAddr string, weight float64) error {
	ep, welcome, err := transport.JoinCluster(ctrlAddr, listenAddr, weight)
	if err != nil {
		return err
	}
	e, err := workerEngine(ep, welcome.Meta)
	if err != nil {
		ep.Close()
		return err
	}
	return e.ServeWorker()
}

// workerEngine builds a worker engine from an endpoint plus the spec carried
// in the handshake metadata.
func workerEngine(ep transport.Endpoint, meta []byte) (*engine.Engine, error) {
	spec, err := DecodeSpec(meta)
	if err != nil {
		return nil, err
	}
	topo, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return engine.NewWorker(topo, spec.Engine, spec.Initial, ep, spec.NodePeers)
}
