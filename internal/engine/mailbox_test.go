package engine

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// testMsg is a mailbox message carrying (sender, seq) for ordering checks.
type testMsg struct {
	sender, seq int
}

func (testMsg) isMessage() {}

// TestMailboxStress hammers one mailbox with many senders while the consumer
// drains, and checks that everything sent before close is delivered in
// per-sender FIFO order. Run with -race.
func TestMailboxStress(t *testing.T) {
	const senders = 8
	const perSender = 5000
	mb := newMailbox()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				mb.put(testMsg{sender: s, seq: i})
			}
		}(s)
	}

	closed := make(chan struct{})
	go func() {
		wg.Wait()
		mb.close()
		close(closed)
	}()

	next := make([]int, senders)
	var batch []message
	for {
		var ok bool
		batch, ok = mb.drain(batch)
		if !ok {
			break
		}
		for i, msg := range batch {
			batch[i] = nil
			m := msg.(testMsg)
			if m.seq != next[m.sender] {
				t.Fatalf("sender %d: got seq %d, want %d (FIFO violated)", m.sender, m.seq, next[m.sender])
			}
			next[m.sender]++
		}
	}
	<-closed
	for s, n := range next {
		if n != perSender {
			t.Fatalf("sender %d: delivered %d of %d", s, n, perSender)
		}
	}
}

// TestMailboxStressInterleavedClose closes the mailbox concurrently with
// in-flight senders: whatever arrives must still be a contiguous per-sender
// FIFO prefix (a dropped put never lets a later one through). Run with -race.
func TestMailboxStressInterleavedClose(t *testing.T) {
	const senders = 6
	const perSender = 4000
	mb := newMailbox()

	var wg sync.WaitGroup
	start := make(chan struct{})
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			<-start
			for i := 0; i < perSender; i++ {
				mb.put(testMsg{sender: s, seq: i})
			}
		}(s)
	}
	go func() {
		close(start)
		mb.close() // races the senders by design
	}()

	next := make([]int, senders)
	var batch []message
	for {
		var ok bool
		batch, ok = mb.drain(batch)
		if !ok {
			break
		}
		for i, msg := range batch {
			batch[i] = nil
			m := msg.(testMsg)
			if m.seq != next[m.sender] {
				t.Fatalf("sender %d: got seq %d, want %d (delivered set is not a FIFO prefix)",
					m.sender, m.seq, next[m.sender])
			}
			next[m.sender]++
		}
	}
	wg.Wait()
}

// TestMailboxCloseDropsLatePuts verifies close semantics: queued messages
// are still drained after close, later puts are dropped.
func TestMailboxCloseDropsLatePuts(t *testing.T) {
	mb := newMailbox()
	for seq := 1; seq <= 3; seq++ {
		if !mb.put(testMsg{seq: seq}) {
			t.Fatalf("put %d before close reported the mailbox closed", seq)
		}
	}
	mb.close()
	if mb.put(testMsg{seq: 4}) {
		t.Fatal("put after close reported delivery")
	}

	got, ok := mb.drain(nil)
	if !ok || len(got) != 3 {
		t.Fatalf("drain after close: ok=%v len=%d, want 3 pre-close messages", ok, len(got))
	}
	for i, m := range got {
		if m.(testMsg).seq != i+1 {
			t.Fatalf("message %d: seq %d, want %d", i, m.(testMsg).seq, i+1)
		}
	}
	if _, ok := mb.drain(nil); ok {
		t.Fatal("second drain after close should report closed")
	}
}

// TestMailboxPerSenderFIFOProperty is a randomized property test: two
// senders interleave bursts of varying sizes; the consumer must observe
// each sender's sequence strictly in order regardless of interleaving.
func TestMailboxPerSenderFIFOProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		mb := newMailbox()
		const per = 1000
		var wg sync.WaitGroup
		for s := 0; s < 2; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				i := 0
				for i < per {
					// A burst of a size that varies deterministically per
					// position, then a yield so the senders interleave.
					n := 1 + (i*7+s*13+trial)%17
					if i+n > per {
						n = per - i
					}
					for j := 0; j < n; j++ {
						mb.put(testMsg{sender: s, seq: i + j})
					}
					i += n
					runtime.Gosched()
				}
			}(s)
		}
		go func() {
			wg.Wait()
			mb.close()
		}()
		next := [2]int{}
		var batch []message
		for {
			var ok bool
			batch, ok = mb.drain(batch)
			if !ok {
				break
			}
			for i, msg := range batch {
				batch[i] = nil
				m := msg.(testMsg)
				if m.seq != next[m.sender] {
					t.Fatalf("trial %d sender %d: got seq %d, want %d", trial, m.sender, m.seq, next[m.sender])
				}
				next[m.sender]++
			}
		}
		if next[0] != per || next[1] != per {
			t.Fatalf("trial %d: delivered %v, want %d each", trial, next, per)
		}
	}
}

// TestBarrierOrderingUnderMigration runs a stateful counting topology for
// several periods while shuffling every key group to a different node each
// period. Exact end-to-end counts prove that (a) no tuple is lost or
// duplicated by the batched data path, (b) barriers never overtake data
// (otherwise flushes would fire early and drop tuples), and (c) the
// pending-replay protocol for in-flight migrations interacts correctly
// with batched frames.
func TestBarrierOrderingUnderMigration(t *testing.T) {
	const (
		nodes     = 4
		keyGroups = 8
		perPeriod = 500
		periods   = 6
	)
	var mu sync.Mutex
	counted := map[string]float64{}

	tp := NewTopology()
	tp.AddSource("src", func(period int, emit Emit) {
		for i := 0; i < perPeriod; i++ {
			emit(&Tuple{Key: fmt.Sprintf("k%03d", i%50), TS: int64(period*perPeriod + i)})
		}
	})
	tp.AddOperator(&Operator{
		Name:      "count",
		KeyGroups: keyGroups,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			st.Table("c").Add(tu.Key, 1)
		},
		Flush: func(kg int, st *State, emit Emit) {
			for k, v := range st.Table("c").All() {
				emit((&Tuple{Key: k}).WithNum("n", v))
			}
			st.ClearTable("c")
		},
	})
	tp.AddOperator(&Operator{
		Name:      "sink",
		KeyGroups: keyGroups,
		Proc: func(tu *Tuple, st *State, emit Emit) {
			mu.Lock()
			counted[strings.Clone(tu.Key)] += tu.Num("n")
			mu.Unlock()
		},
	})
	tp.Connect("src", "count")
	tp.Connect("count", "sink")
	e, err := New(tp, Config{Nodes: nodes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	alloc := e.Allocation()
	for p := 0; p < periods; p++ {
		if _, err := e.RunPeriod(); err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		// Rotate every group to the next node: every period migrates all
		// groups, so data always races state arrivals somewhere.
		for g := range alloc {
			alloc[g] = (alloc[g] + 1) % nodes
		}
		if err := e.ApplyPlan(alloc); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	total := 0.0
	for _, v := range counted {
		total += v
	}
	if want := float64(perPeriod * periods); total != want {
		t.Fatalf("sink saw %.0f tuples, want %.0f (lost or duplicated under migration)", total, want)
	}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%03d", i)
		if want := float64(perPeriod / 50 * periods); counted[k] != want {
			t.Fatalf("key %s: counted %.0f, want %.0f", k, counted[k], want)
		}
	}
}
