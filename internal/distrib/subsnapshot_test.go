package distrib

import (
	"sync"
	"testing"
)

// TestSubSnapshotDuringPeriodDistributed: SubSnapshot may be called from any
// goroutine while a period is in flight, in a cluster too — there it asks
// every worker peer for its mid-period readings while the period-driving
// goroutine arms, collects and checkpoints over the same peers. Under -race
// this is the check that the two share no peer list.
func TestSubSnapshotDuringPeriodDistributed(t *testing.T) {
	e, stop, err := StartMem(equivSpec(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	done := make(chan struct{})
	var wg sync.WaitGroup
	var snaps int
	var snapErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			sub, err := e.SubSnapshot()
			if err == nil {
				err = sub.Validate()
			}
			if err != nil {
				snapErr = err
				return
			}
			snaps++
		}
	}()
	for p := 0; p < 6; p++ {
		if _, err := e.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if snapErr != nil {
		t.Fatalf("SubSnapshot during a period: %v", snapErr)
	}
	if snaps == 0 {
		t.Fatal("no SubSnapshot completed while the periods ran")
	}
}
