package engine

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/transport"
)

func goldenTuple() *Tuple {
	return (&Tuple{Key: "k1", TS: 7}).WithStr("geo", "dk").WithNum("b", 2)
}

// TestGoldenV2Frame pins the v2 frame encoding byte for byte: version byte,
// length-prefixed records, first use of a name defines it inline (odd
// low bit), repeats back-reference by id (even low bit).
func TestGoldenV2Frame(t *testing.T) {
	rec1 := []byte{
		0x03,           // kg = 3
		0x02, 'k', '1', // key
		0x0e,                // ts = 7
		0x01,                // 1 string field
		0x07, 'g', 'e', 'o', // name def: 3<<1|1, "geo" → id 0
		0x02, 'd', 'k', // value "dk"
		0x01,      // 1 numeric field
		0x03, 'b', // name def: 1<<1|1, "b" → id 1
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,
	}
	rec2 := []byte{
		0x03,
		0x02, 'k', '1',
		0x0e,
		0x01,
		0x00, // back-ref id 0 ("geo")
		0x02, 'd', 'k',
		0x01,
		0x02, // back-ref id 1 ("b")
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,
	}
	want := []byte{0xF2} // codec.FrameV2
	want = append(want, byte(len(rec1)))
	want = append(want, rec1...)
	want = append(want, byte(len(rec2)))
	want = append(want, rec2...)

	var ob outbox
	tu := goldenTuple()
	w1 := ob.stage(3, tu)
	w2 := ob.stage(3, tu)
	if !bytes.Equal(ob.buf, want) {
		t.Fatalf("v2 frame drifted:\n got %#v\nwant %#v", ob.buf, want)
	}
	if w1 != len(rec1) || w2 != len(rec2) {
		t.Fatalf("stage wire lengths %d/%d, want %d/%d", w1, w2, len(rec1), len(rec2))
	}
	if w2 >= w1 {
		t.Fatalf("dictionary back-references should shrink repeat records (%d vs %d)", w2, w1)
	}

	// Decode the pinned bytes and check the tuples.
	var rx rxDecoder
	n := 0
	err := decodeBatch(want, &rx, func(kg int, v *Tuple, wire int) {
		n++
		if kg != 3 || v.Key != "k1" || v.TS != 7 || v.Str("geo") != "dk" || v.Num("b") != 2 {
			t.Fatalf("record %d decoded wrong: kg=%d key=%q", n, kg, v.Key)
		}
		if wire != map[int]int{1: len(rec1), 2: len(rec2)}[n] {
			t.Fatalf("record %d wire=%d", n, wire)
		}
	})
	if err != nil || n != 2 {
		t.Fatalf("decode: %d records, err %v", n, err)
	}
}

// retiredV1Frame is a well-formed frame of the retired wire format v1
// (version byte 0xF1, field names spelled out in every record): what a v1
// sender would have shipped for goldenTuple in key group 3.
func retiredV1Frame() []byte {
	rec := []byte{
		0x03,           // kg = 3
		0x02, 'k', '1', // key
		0x0e,                // ts = 7
		0x01,                // 1 string field
		0x03, 'g', 'e', 'o', // name "geo" in full
		0x02, 'd', 'k',
		0x01,      // 1 numeric field
		0x01, 'b', // name "b" in full
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,
	}
	return codec.AppendBatchItem([]byte{0xF1}, rec)
}

// TestRetiredV1FrameFailsThePeriod delivers a 0xF1-headed frame to a shard
// mid-period: the shard must report it (evError → the period fails) and must
// not decode a single record out of it.
func TestRetiredV1FrameFailsThePeriod(t *testing.T) {
	if err := decodeBatch(retiredV1Frame(), &rxDecoder{}, func(int, *Tuple, int) {
		t.Fatal("decoded a record out of a 0xF1 frame")
	}); err == nil || !strings.Contains(err.Error(), "unknown frame version byte 0xf1") {
		t.Fatalf("decodeBatch(0xF1 frame) = %v, want the unknown-version error", err)
	}

	var e *Engine
	var processed atomic.Int64
	tp := NewTopology()
	tp.AddSource("src", func(period int, emit Emit) {
		frame := append(codec.GetBuf(), retiredV1Frame()...)
		e.deliver(0, dataBatchMsg{op: 0, period: period, count: 1, encoded: frame})
	})
	tp.AddOperator(&Operator{
		Name: "sink", KeyGroups: 4,
		Proc: func(tu *Tuple, st *State, emit Emit) { processed.Add(1) },
	})
	tp.Connect("src", "sink")
	var err error
	if e, err = New(tp, Config{Nodes: 1}, nil); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunPeriod(); err == nil || !strings.Contains(err.Error(), "unknown frame version byte 0xf1") {
		t.Fatalf("RunPeriod = %v, want the unknown-version error", err)
	}
	if n := processed.Load(); n != 0 {
		t.Fatalf("%d tuples processed out of a 0xF1 frame", n)
	}
}

// TestDecodeZeroAllocSteadyState: decoding a v2 frame and reading every
// field of its tuples allocates nothing once the field-name cache is warm.
func TestDecodeZeroAllocSteadyState(t *testing.T) {
	var ob outbox
	for i := 0; i < 64; i++ {
		ob.stage(i%4, (&Tuple{Key: fmt.Sprintf("key-%d", i%8), TS: int64(i)}).
			WithStr("geo", fmt.Sprintf("cell-%d", i%3)).
			WithNum("bytes", float64(i)))
	}
	frame := ob.buf
	var rx rxDecoder
	run := func() {
		sum := 0.0
		if err := decodeBatch(frame, &rx, func(kg int, v *Tuple, wire int) {
			if v.Key == "" || v.Str("geo") == "" {
				t.Fatal("bad tuple")
			}
			sum += v.Num("bytes") + float64(v.TS) + float64(v.NumFields())
		}); err != nil {
			t.Fatal(err)
		}
		if sum == 0 {
			t.Fatal("no data")
		}
	}
	run() // warm the field-name cache
	if allocs := testing.AllocsPerRun(50, run); allocs > 0 {
		t.Fatalf("steady-state receive path allocates %.1f allocs per frame, want 0", allocs)
	}
}

// TestCloneOutlivesFrame checks the documented escape hatch: a cloned tuple
// stays intact after the frame buffer is recycled and overwritten, while a
// string read from the decoded tuple was the frame's own bytes.
func TestCloneOutlivesFrame(t *testing.T) {
	var ob outbox
	ob.stage(1, (&Tuple{Key: "persist-me", TS: 9}).WithStr("s", "value-1").WithNum("n", 3))
	msg, ok := ob.take(1)
	if !ok {
		t.Fatal("no frame")
	}
	var rx rxDecoder
	var kept *Tuple
	var keptStr string
	if err := decodeBatch(msg.encoded, &rx, func(kg int, v *Tuple, wire int) {
		kept = v.Clone()
		keptStr = v.Str("s")
	}); err != nil {
		t.Fatal(err)
	}
	// What the next user of the pooled buffer does to it.
	for i := range msg.encoded {
		msg.encoded[i] = 0xAB
	}
	codec.PutBuf(msg.encoded)
	if kept.Key != "persist-me" || kept.TS != 9 || kept.Str("s") != "value-1" || kept.Num("n") != 3 {
		t.Fatalf("cloned tuple corrupted by frame reuse: %+v", kept)
	}
	if keptStr == "value-1" {
		t.Fatalf("a decoded string survived the frame: Str copies again")
	}
}

// TestWireAccountingIdentity is the sender/receiver agreement test the v2
// cost model depends on: across periods with real cross-node traffic, the
// receiver-measured wire volume must equal the sum of what worker nodes and
// sources staged, byte for byte.
func TestWireAccountingIdentity(t *testing.T) {
	tp := NewTopology()
	tp.AddSource("src", func(period int, emit Emit) {
		for i := 0; i < 500; i++ {
			emit((&Tuple{Key: fmt.Sprintf("k%d", i%37), TS: int64(i)}).
				WithStr("payload", fmt.Sprintf("p%d", i%11)).
				WithNum("v", float64(i)))
		}
	})
	tp.AddOperator(&Operator{
		Name: "a", KeyGroups: 8,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			emit((&Tuple{Key: tu.Str("payload"), TS: tu.TS}).WithNum("v", tu.Num("v")))
		},
	})
	tp.AddOperator(&Operator{
		Name: "b", KeyGroups: 8,
		Proc: func(tu *Tuple, st *State, emit Emit) { st.Add("n", tu.Num("v")) },
	})
	tp.Connect("src", "a")
	tp.Connect("a", "b")
	// Pin op a to node 0 and op b to node 1 so every a→b edge crosses nodes.
	initial := make([]int, 16)
	for i := 8; i < 16; i++ {
		initial[i] = 1
	}
	e, err := New(tp, Config{Nodes: 2}, initial)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for p := 0; p < 3; p++ {
		ps, err := e.RunPeriod()
		if err != nil {
			t.Fatal(err)
		}
		if ps.BytesCrossNodeIn == 0 || ps.SrcBytesCrossNode == 0 {
			t.Fatalf("period %d: no cross-node traffic measured (in=%d src=%d)",
				ps.Period, ps.BytesCrossNodeIn, ps.SrcBytesCrossNode)
		}
		if got, want := ps.BytesCrossNodeIn, ps.BytesCrossNode+ps.SrcBytesCrossNode; got != want {
			t.Fatalf("period %d: receiver measured %d wire bytes, senders staged %d",
				ps.Period, got, want)
		}
	}
}

// byeAndDown is a worker's endpoint on which the controller's bye and the loss
// of the controller's link are both already waiting — what a TCP link delivers
// when the controller says bye and closes, and the worker is slow to look.
type byeAndDown struct {
	recv chan transport.Frame
	down chan int
}

func (byeAndDown) Self() int                      { return 1 }
func (byeAndDown) Peers() []int                   { return []int{0} }
func (byeAndDown) Send(int, []byte) error         { return nil }
func (e byeAndDown) Recv() <-chan transport.Frame { return e.recv }
func (e byeAndDown) Down() <-chan int             { return e.down }
func (byeAndDown) Close() error                   { return nil }

// TestByeOutranksTheLinkGoingDown: a worker that was told to shut down ends
// cleanly, whichever of the two notices its select happens to see first.
func TestByeOutranksTheLinkGoingDown(t *testing.T) {
	for i := 0; i < 64; i++ {
		ep := byeAndDown{recv: make(chan transport.Frame, 1), down: make(chan int, 1)}
		ep.recv <- transport.Frame{Peer: 0, Data: encodeByeFrame()}
		ep.down <- 0
		w, err := NewWorker(wordCountTopology([]string{"a"}, 1, 2, newCollector()), Config{Nodes: 1}, nil, ep, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.ServeWorker(); err != nil {
			t.Fatalf("try %d: %v", i, err)
		}
	}
}

// truncatedStatsRequests is a controller endpoint that cuts the version off
// every rqStats request it sends: the frame still reaches the worker and its
// id still decodes, the request does not.
type truncatedStatsRequests struct{ transport.Endpoint }

func (t truncatedStatsRequests) Send(peer int, data []byte) error {
	if q := (reqFrame{}); data[0] == frReq && decode(data[1:], &q) == nil && q.kind == rqStats {
		data = data[:len(data)-1]
	}
	return t.Endpoint.Send(peer, data)
}

// TestUndecodableRequestIsAnswered: a worker that cannot decode a request
// still ends the controller's round trip — with an error body, so the period
// fails naming the peer — instead of dropping the frame and leaving the
// barrier waiting on a reply from a peer that is not dead.
func TestUndecodableRequestIsAnswered(t *testing.T) {
	eps := transport.NewMemCluster(1)
	topo := func() *Topology { return wordCountTopology([]string{"a", "b"}, 10, 2, newCollector()) }
	w, err := NewWorker(topo(), Config{Nodes: 1}, nil, eps[1], []int{1})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- w.ServeWorker() }()
	e, err := NewDistributed(topo(), Config{Nodes: 1}, nil, truncatedStatsRequests{eps[0]}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.RunPeriod()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "stats reply from peer 1") {
			t.Errorf("RunPeriod = %v, want the stats reply of peer 1 failing to decode", err)
		}
	case <-time.After(30 * time.Second): // only reached when the barrier is wedged
		t.Error("the barrier is still waiting for a reply to a request the worker dropped")
	}
	e.Close()
	<-served
}

// forgedMigration is a worker's endpoint that, once armed, sends the
// controller an evMigrated event for a group the topology does not have,
// ahead of the first completion event it carries — so the forgery arrives
// inside the period's barrier wait.
type forgedMigration struct {
	transport.Endpoint
	armed, sent atomic.Bool
}

func (f *forgedMigration) Send(peer int, data []byte) error {
	var ev engEvent
	if f.armed.Load() && data[0] == frEvent && decode(data[1:], &ev) == nil && ev.kind == evCompletion && f.sent.CompareAndSwap(false, true) {
		if err := f.Endpoint.Send(peer, encode(frEvent, &engEvent{kind: evMigrated, gid: 1000})); err != nil {
			return err
		}
	}
	return f.Endpoint.Send(peer, data)
}

// TestForgedEventFailsThePeriod: an event naming a group out of the
// topology's range — once a checkpoint gave the controller a tip record to
// index with it — fails the period with an error naming the peer, instead of
// panicking the controller.
func TestForgedEventFailsThePeriod(t *testing.T) {
	eps := transport.NewMemCluster(1)
	topo := func() *Topology { return wordCountTopology([]string{"a", "b", "c"}, 30, 4, newCollector()) }
	forged := &forgedMigration{Endpoint: eps[1]}
	w, err := NewWorker(topo(), Config{Nodes: 2}, nil, forged, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- w.ServeWorker() }()
	e, err := NewDistributed(topo(), Config{Nodes: 2}, nil, eps[0], []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		e.Close()
		<-served
	}()
	if _, err := e.RunPeriod(); err != nil {
		t.Fatal(err)
	}
	e.TakeCheckpoint()
	forged.armed.Store(true)
	if _, err := e.RunPeriod(); err == nil || !strings.Contains(err.Error(), "event from peer 1") || !strings.Contains(err.Error(), "group 1000") {
		t.Fatalf("RunPeriod = %v, want the forged event of peer 1 failing the period", err)
	}
}
