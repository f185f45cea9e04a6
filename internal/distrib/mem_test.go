package distrib

import (
	"repro/internal/engine"
	"repro/internal/transport"
)

// startMem runs a whole cluster in one process over the in-memory transport:
// worker engines serve on their own goroutines (standing in for processes),
// and the controller engine is returned ready to run periods. wrap, when
// non-nil, may decorate each endpoint (peer 0 = controller) — the chaos
// tests inject delay and loss there. stop shuts the cluster down.
func startMem(spec JobSpec, workers int, wrap func(peer int, ep transport.Endpoint) transport.Endpoint) (e *engine.Engine, stop func(), err error) {
	if err := spec.Validate(workers); err != nil {
		return nil, nil, err
	}
	meta, err := EncodeSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	eps := transport.NewMemCluster(workers)
	if wrap != nil {
		for i, ep := range eps {
			eps[i] = wrap(i, ep)
		}
	}
	for i := 1; i <= workers; i++ {
		we, werr := workerEngine(eps[i], meta)
		if werr != nil {
			for _, ep := range eps {
				ep.Close()
			}
			return nil, nil, werr
		}
		go we.ServeWorker() //nolint:errcheck // exits when the controller closes
	}
	topo, err := spec.Build()
	if err != nil {
		for _, ep := range eps {
			ep.Close()
		}
		return nil, nil, err
	}
	e, err = engine.NewDistributed(topo, spec.Engine, spec.Initial, eps[0], spec.NodePeers)
	if err != nil {
		for _, ep := range eps {
			ep.Close()
		}
		return nil, nil, err
	}
	return e, func() { e.Close() }, nil
}
