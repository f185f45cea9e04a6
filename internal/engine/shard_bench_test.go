package engine

import (
	"sync"
	"testing"
)

// BenchmarkShardedMailbox measures the sharded receive fabric: 4 senders
// hash-spray messages across 4 shard mailboxes, each drained by its
// own goroutine — the multi-queue counterpart of BenchmarkMailbox's single
// MPSC queue. With one mailbox per shard, senders contend only when they
// collide on a shard, and drains run in parallel.
func BenchmarkShardedMailbox(b *testing.B) {
	const senders, shards = 4, 4
	mbs := make([]*mailbox, shards)
	for i := range mbs {
		mbs[i] = newMailbox()
	}
	var wg sync.WaitGroup
	per := b.N/senders + 1
	b.ReportAllocs()
	b.ResetTimer()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sh := int(mix64(uint64(s*per+i)) % uint64(shards))
				mbs[sh].put(testMsg{sender: s, seq: i})
			}
		}(s)
	}
	go func() {
		wg.Wait()
		for _, mb := range mbs {
			mb.close()
		}
	}()
	counts := make([]int, shards)
	var rwg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		rwg.Add(1)
		go func(sh int) {
			defer rwg.Done()
			var batch []message
			for {
				var ok bool
				batch, ok = mbs[sh].drain(batch)
				if !ok {
					return
				}
				for i := range batch {
					batch[i] = nil
					counts[sh]++
				}
			}
		}(sh)
	}
	rwg.Wait()
	b.StopTimer()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != senders*per {
		b.Fatalf("received %d of %d", total, senders*per)
	}
}

// benchEmitSink defeats escape analysis in the heap variant below.
var benchEmitSink *Tuple

// BenchmarkEmitPool isolates the cost of building one operator-output tuple
// per emit: the heap variant allocates a fresh Tuple each time (what
// operator code paid before (*Tuple).NewTuple existed); the pooled variant
// draws from a shard-local free list and recycles after routing, the way the
// emitter does — zero allocations in steady state.
func BenchmarkEmitPool(b *testing.B) {
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchEmitSink = (&Tuple{Key: "k", TS: int64(i)}).WithNum("v", 1)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		var fl tupleFreeList
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := fl.get()
			t.Key, t.TS = "k", int64(i)
			fl.put(t.WithNum("v", 1))
		}
	})
}
