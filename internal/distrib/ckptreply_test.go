package distrib

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/transport"
)

// truncatingEndpoint cuts the tail off every frame it sends to the
// controller while armed: the frame still arrives and still matches its
// request, but its body no longer decodes.
type truncatingEndpoint struct {
	transport.Endpoint
	armed *atomic.Bool
}

func (t truncatingEndpoint) Send(peer int, data []byte) error {
	if t.armed.Load() && peer == 0 && len(data) > 16 {
		data = data[:len(data)-5]
	}
	return t.Endpoint.Send(peer, data)
}

// TestCorruptCheckpointReplyFailsThePeriod: a worker that is alive but whose
// checkpoint reply does not decode is not a dead peer to be skipped — its
// tips would silently go stale. The failure surfaces from the next period,
// like a corrupt entry inside a reply does.
func TestCorruptCheckpointReplyFailsThePeriod(t *testing.T) {
	var armed atomic.Bool
	e, stop, err := startMem(equivSpec(), 2, func(peer int, ep transport.Endpoint) transport.Endpoint {
		if peer != 1 {
			return ep
		}
		return truncatingEndpoint{Endpoint: ep, armed: &armed}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for p := 0; p < 2; p++ {
		if _, err := e.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	// Between periods the only frame peer 1 sends is its checkpoint reply.
	armed.Store(true)
	cs := e.TakeCheckpoint()
	armed.Store(false)
	if cs.Groups == 0 {
		t.Fatalf("peer 2's groups were not checkpointed: %+v", cs)
	}
	_, err = e.RunPeriod()
	if err == nil || !strings.Contains(err.Error(), "checkpoint reply from peer 1") {
		t.Fatalf("period after a corrupt checkpoint reply: err = %v, want the reply's decode failure", err)
	}
}
