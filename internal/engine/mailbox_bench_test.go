package engine

import (
	"sync"
	"testing"
)

// BenchmarkMailbox isolates the MPSC queue: 4 senders put messages one at a
// time, as the engine does, at one receiver that drains whole backlogs per
// wakeup.
func BenchmarkMailbox(b *testing.B) {
	const senders = 4
	mb := newMailbox()
	var wg sync.WaitGroup
	per := b.N/senders + 1
	b.ReportAllocs()
	b.ResetTimer()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				mb.put(testMsg{sender: s, seq: i})
			}
		}(s)
	}
	go func() {
		wg.Wait()
		mb.close()
	}()
	count := 0
	var batch []message
	for {
		var ok bool
		batch, ok = mb.drain(batch)
		if !ok {
			break
		}
		for i := range batch {
			batch[i] = nil
			count++
		}
	}
	b.StopTimer()
	if count != senders*per {
		b.Fatalf("received %d of %d", count, senders*per)
	}
}
