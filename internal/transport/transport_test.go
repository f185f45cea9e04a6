package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
)

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
func expectFIFO(t *testing.T, ep Endpoint, n int) {
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

func TestMemClusterFIFO(t *testing.T) {
	eps := NewMemCluster(2)
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	if got := eps[0].Peers(); len(got) != 2 {
		t.Fatalf("controller peers = %v", got)
	}

	// Both workers blast interleaved numbered frames at the controller and
	// at each other; every link must stay in order.
	const n = 500
	var wg sync.WaitGroup
	for _, w := range []int{1, 2} {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; seq < n; seq++ {
				for _, dst := range []int{0, 3 - w} {
					if err := eps[w].Send(dst, frame(w, seq)); err != nil {
						t.Errorf("send %d->%d: %v", w, dst, err)
						return
					}
				}
			}
		}()
	}
	expectFIFO(t, eps[0], 2*n)
	wg.Wait()
}

func TestMemClusterDown(t *testing.T) {
	eps := NewMemCluster(2)
	eps[2].Close()
	for _, ep := range []Endpoint{eps[0], eps[1]} {
		select {
		case p := <-ep.Down():
			if p != 2 {
				t.Fatalf("down peer = %d, want 2", p)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no Down notification for closed peer")
		}
	}
	if err := eps[0].Send(2, frame(0, 0)); err == nil {
		t.Fatal("send to dead peer succeeded")
	}
	eps[0].Close()
	eps[1].Close()
}

// startTCPCluster forms a controller + n-worker loopback cluster. The
// returned endpoints are indexed by peer id; welcomes by worker (peer-1).
func startTCPCluster(t testing.TB, n int, weights []float64, metas [][]byte) ([]Endpoint, []*codec.Welcome) {
	t.Helper()
	host, err := ListenCluster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]Endpoint, n+1)
	wels := make([]*codec.Welcome, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		wg.Add(1)
		go func(w float64) {
			defer wg.Done()
			ep, wel, err := JoinCluster(host.Addr(), "127.0.0.1:0", w)
			if err != nil {
				t.Errorf("join: %v", err)
				return
			}
			mu.Lock()
			eps[wel.Self] = ep
			wels[wel.Self-1] = wel
			mu.Unlock()
		}(w)
	}
	if err := host.Accept(n); err != nil {
		t.Fatal(err)
	}
	if metas == nil {
		metas = make([][]byte, n)
	}
	ctrl, err := host.Start(metas)
	if err != nil {
		t.Fatal(err)
	}
	eps[0] = ctrl
	wg.Wait()
	return eps, wels
}

func closeAll(eps []Endpoint) {
	for _, ep := range eps {
		if ep != nil {
			ep.Close()
		}
	}
}

func TestTCPClusterHandshake(t *testing.T) {
	meta := []byte(`{"job":"x"}`)
	eps, wels := startTCPCluster(t, 2, []float64{1, 2.5}, [][]byte{meta, meta})
	defer closeAll(eps)

	for i, wel := range wels {
		if wel.Self != i+1 {
			t.Errorf("worker %d assigned id %d", i, wel.Self)
		}
		if wel.Wire != codec.WireVersion {
			t.Errorf("worker %d wire = %d, want %d", i, wel.Wire, codec.WireVersion)
		}
		if string(wel.Meta) != string(meta) {
			t.Errorf("worker %d meta = %q", i, wel.Meta)
		}
		if len(wel.Dir) != 2 {
			t.Errorf("worker %d directory = %v", i, wel.Dir)
		}
	}
	// The full mesh works: controller->worker, worker->controller and
	// worker->worker direct links all carry ordered frames.
	const n = 200
	for _, link := range []struct{ from, to int }{{0, 1}, {0, 2}, {1, 0}, {2, 0}, {1, 2}, {2, 1}} {
		for seq := 0; seq < n; seq++ {
			if err := eps[link.from].Send(link.to, frame(link.from, seq)); err != nil {
				t.Fatalf("send %d->%d seq %d: %v", link.from, link.to, seq, err)
			}
		}
	}
	expectFIFO(t, eps[0], 2*n)
	expectFIFO(t, eps[1], 2*n)
	expectFIFO(t, eps[2], 2*n)
}

func TestTCPClusterDown(t *testing.T) {
	eps, _ := startTCPCluster(t, 2, nil, nil)
	defer closeAll(eps)
	eps[2].Close()
	for _, ep := range []Endpoint{eps[0], eps[1]} {
		select {
		case p := <-ep.Down():
			if p != 2 {
				t.Fatalf("down peer = %d, want 2", p)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no Down notification after worker close")
		}
	}
}

// TestTCPRejectsWireVersionMismatch: a joiner speaking the wrong wire
// version is rejected during discovery (its conn closes) and cluster
// formation proceeds with conforming workers only.
func TestTCPRejectsWireVersionMismatch(t *testing.T) {
	host, err := ListenCluster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// The bad joiner first: wrong version in the Hello.
	badDone := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", host.Addr())
		if err != nil {
			badDone <- err
			return
		}
		defer conn.Close()
		hello := codec.AppendHello(nil, codec.Hello{Wire: codec.WireVersion, Weight: 1, Addr: "127.0.0.1:1"})
		hello[len(codec.HandshakeMagic)] = codec.WireVersion + 1 // corrupt the version byte
		if err := writeFrame(conn, hello); err != nil {
			badDone <- err
			return
		}
		// The controller must close this conn without a Welcome.
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		buf := make([]byte, 1)
		if _, err := conn.Read(buf); err == nil {
			badDone <- fmt.Errorf("controller answered a bad-version hello")
			return
		}
		badDone <- nil
	}()

	var goodEP Endpoint
	goodDone := make(chan error, 1)
	go func() {
		// Give the bad joiner a head start so the rejection path runs first.
		time.Sleep(50 * time.Millisecond)
		ep, wel, err := JoinCluster(host.Addr(), "127.0.0.1:0", 1)
		if err == nil {
			goodEP = ep
			if wel.Self != 1 {
				err = fmt.Errorf("good worker assigned id %d, want 1", wel.Self)
			}
		}
		goodDone <- err
	}()

	if err := host.Accept(1); err != nil {
		t.Fatal(err)
	}
	ctrl, err := host.Start(make([][]byte, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := <-badDone; err != nil {
		t.Fatalf("bad joiner: %v", err)
	}
	if err := <-goodDone; err != nil {
		t.Fatalf("good joiner: %v", err)
	}
	defer goodEP.Close()
}

func BenchmarkTransportSend(b *testing.B) {
	payload := make([]byte, 1024)
	run := func(b *testing.B, src, dst Endpoint) {
		b.SetBytes(int64(len(payload)))
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < b.N; i++ {
				fr := <-dst.Recv()
				codec.PutBuf(fr.Data)
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf := append(codec.GetBuf(), payload...)
			if err := src.Send(dst.Self(), buf); err != nil {
				b.Fatal(err)
			}
		}
		<-done
	}
	b.Run("mem", func(b *testing.B) {
		eps := NewMemCluster(1)
		defer closeAll(eps)
		run(b, eps[0], eps[1])
	})
	b.Run("tcp", func(b *testing.B) {
		eps, _ := startTCPCluster(b, 1, nil, nil)
		defer closeAll(eps)
		run(b, eps[0], eps[1])
	})
}

func BenchmarkHandshake(b *testing.B) {
	// Full cluster formation: listen, one worker joins, mesh completes.
	for i := 0; i < b.N; i++ {
		eps, _ := startTCPCluster(b, 1, nil, nil)
		closeAll(eps)
	}
}
