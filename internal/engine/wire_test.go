package engine

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/statestore"
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
	// A record costs its length with every name one byte long, wherever its
	// frame defines the names: both records cost rec2's length.
	if w1 != len(rec2) || w2 != len(rec2) {
		t.Fatalf("stage wire lengths %d/%d, want %d/%d", w1, w2, len(rec2), len(rec2))
	}

	// Decode the pinned bytes and check the tuples.
	var rx rxDecoder
	n := 0
	err := decodeBatch(want, &rx, maxWireGroups, func(kg int, v *Tuple, wire int) {
		n++
		if kg != 3 || v.Key != "k1" || v.TS != 7 || v.Str("geo") != "dk" || v.Num("b") != 2 {
			t.Fatalf("record %d decoded wrong: kg=%d key=%q", n, kg, v.Key)
		}
		if wire != len(rec2) {
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
	if err := decodeBatch(retiredV1Frame(), &rxDecoder{}, maxWireGroups, func(int, *Tuple, int) {
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
		if err := decodeBatch(frame, &rx, maxWireGroups, func(kg int, v *Tuple, wire int) {
			if v.Key == "" || v.Str("geo") == "" {
				t.Fatal("bad tuple")
			}
			sum += v.Num("bytes") + float64(v.TS) + float64(len(v.strs)+len(v.nums))
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
	if err := decodeBatch(msg.encoded, &rx, maxWireGroups, func(kg int, v *Tuple, wire int) {
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

// forgedEvent is a worker's endpoint that, once armed, sends the controller
// an event that does not decode (an evMigrated cut short after its byte
// count), ahead of the first completion event it carries — so the forgery
// arrives inside the period's barrier wait.
type forgedEvent struct {
	transport.Endpoint
	armed, sent atomic.Bool
}

func (f *forgedEvent) Send(peer int, data []byte) error {
	var ev engEvent
	if f.armed.Load() && data[0] == frEvent && decode(data[1:], &ev) == nil && ev.kind == evCompletion && f.sent.CompareAndSwap(false, true) {
		if err := f.Endpoint.Send(peer, []byte{frEvent, evMigrated, 1, 0, 3}); err != nil {
			return err
		}
	}
	return f.Endpoint.Send(peer, data)
}

// TestForgedEventFailsThePeriod: an event from a worker that does not decode
// fails the period with an error naming the peer, instead of the controller.
func TestForgedEventFailsThePeriod(t *testing.T) {
	eps := transport.NewMemCluster(1)
	topo := func() *Topology { return wordCountTopology([]string{"a", "b", "c"}, 30, 4, newCollector()) }
	forged := &forgedEvent{Endpoint: eps[1]}
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
	forged.armed.Store(true)
	if _, err := e.RunPeriod(); err == nil || !strings.Contains(err.Error(), "event from peer 1") {
		t.Fatalf("RunPeriod = %v, want the forged event of peer 1 failing the period", err)
	}
}

// TestStatsReplyBoundsCommEdges: a worker's stats reply whose communication
// triple names a group the topology does not have fails to decode — which
// fails the period with an error naming the peer — as a per-group reading of
// such a group does, instead of the controller dropping the triple and
// folding the rest of the reply.
func TestStatsReplyBoundsCommEdges(t *testing.T) {
	const groups, nodes = 8, 2
	edges := codec.Wire{}
	for _, e := range [][2]int{{3, groups + 5}, {1, 2}} {
		n := int64(1)
		commEdge(&edges, &e[0], &e[1], &n, maxWireGroups)
	}
	sent := &statsReply{acc: &mergeAcc{}, edges: edges.B}
	sent.acc.reset(groups, nodes)
	body := codec.Wire{}
	sent.wire(&body)

	var fold mergeAcc
	fold.reset(groups, nodes)
	var comm core.CommBuilder
	comm.Reset(groups)
	if err := fold.addReply(body.B, &comm, make([]int, groups), make([]int, groups)); err == nil {
		t.Fatalf("a reply with edge (3, %d) of a %d-group topology decoded; %d of its 2 edges kept", groups+5, groups, comm.Len())
	}
}

// forgedFrames is a controller's endpoint that, once armed, corrupts what it
// sends worker peer 1 at the next arm: arm, when set, rewrites the arm frame,
// and extra, when set, follows it as a data-plane frame of its own.
type forgedFrames struct {
	transport.Endpoint
	armed atomic.Bool
	arm   func(*armFrame)
	extra []byte
}

func (f *forgedFrames) Send(peer int, data []byte) error {
	var a armFrame
	if peer != 1 || data[0] != frArm || decode(data[1:], &a) != nil || !f.armed.CompareAndSwap(true, false) {
		return f.Endpoint.Send(peer, data)
	}
	if f.arm != nil {
		f.arm(&a)
		data = encode(frArm, &a)
	}
	if err := f.Endpoint.Send(peer, data); err != nil || f.extra == nil {
		return err
	}
	return f.Endpoint.Send(peer, f.extra)
}

// TestForgedFrameFailsThePeriod: a forged frame — an arm frame whose
// allocation falls short of the groups and that awaits a group past it, a
// state transfer, a recovery or a data batch for an operator or key group the
// topology does not have, a state transfer whose state, delta or base does not
// decode, or a data batch whose record names a key group the operator does
// not have — fails the period with an error naming the frame or the record,
// instead of panicking the worker's serve loop or one of its shards.
func TestForgedFrameFailsThePeriod(t *testing.T) {
	topo := func() *Topology { return wordCountTopology([]string{"a", "b", "c"}, 30, 4, newCollector()) }
	batch := func(op, kg int) []byte {
		var ob outbox
		ob.stage(kg, &Tuple{Key: "a", TS: 1})
		m, _ := ob.take(2)
		return encodeMsgFrame(1, dataBatchMsg{op: op, period: 2, count: 1, encoded: m.encoded})
	}
	for _, c := range []struct {
		name  string
		arm   func(*armFrame)
		extra []byte
		want  string
	}{
		{"arm", func(a *armFrame) { a.alloc, a.awaitIn = []int{0}, []int{3} }, nil, "arm frame allocates 1 groups of 5"},
		{"state", nil, encodeMsgFrame(1, stateMsg{op: 9}), "message frame kind 3: operator 9 of 2"},
		{"state bytes", nil, encodeMsgFrame(1, stateMsg{kg: 1, encoded: []byte{9}}), "message frame kind 3: state for group 1 of operator 0"},
		{"state delta", nil, encodeMsgFrame(1, stateMsg{kg: 1, encoded: []byte{9}, delta: true}), "message frame kind 3: state delta for group 1 of operator 0"},
		{"state base", nil, encodeMsgFrame(1, stateMsg{kg: 1, encoded: new(statestore.Delta).EncodeTransfer(nil), delta: true, base: []byte{9}}), "message frame kind 3: checkpoint base for group 1 of operator 0"},
		{"recover", nil, encodeMsgFrame(1, recoverMsg{op: 0, kg: 4, tipVer: -1}), "message frame kind 6: key group 4 of operator 0's 4"},
		{"data", nil, batch(9, 0), "message frame kind 1: operator 9 of 2"},
		{"record", nil, batch(1, 50), "batch record for key group 50 of the operator's 1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			eps := transport.NewMemCluster(1)
			w, err := NewWorker(topo(), Config{Nodes: 2}, nil, eps[1], []int{0, 1})
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- w.ServeWorker() }()
			forged := &forgedFrames{Endpoint: eps[0], arm: c.arm, extra: c.extra}
			e, err := NewDistributed(topo(), Config{Nodes: 2}, nil, forged, []int{0, 1})
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
			forged.armed.Store(true)
			if _, err := e.RunPeriod(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("RunPeriod = %v, want the forged frame failing the period with %q", err, c.want)
			}
		})
	}
}
