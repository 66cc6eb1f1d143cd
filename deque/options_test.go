package deque

import (
	"sync"
	"testing"
)

// hammer drives a deque from both ends concurrently and checks the popped
// multiset matches the pushed one.
func hammer(t *testing.T, d Deque[int]) {
	t.Helper()
	const workers = 4
	const perWorker = 2000
	var wg sync.WaitGroup
	popped := make([]map[int]int, workers)
	for w := 0; w < workers; w++ {
		w := w
		popped[w] = make(map[int]int)
		wg.Add(1)
		go func() {
			defer wg.Done()
			left := w%2 == 0
			for i := 0; i < perWorker; i++ {
				v := w*perWorker + i + 1
				for {
					var err error
					if left {
						err = d.PushLeft(v)
					} else {
						err = d.PushRight(v)
					}
					if err == nil {
						break
					}
				}
				for {
					var got int
					var err error
					if left {
						got, err = d.PopRight()
					} else {
						got, err = d.PopLeft()
					}
					if err == nil {
						popped[w][got]++
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, m := range popped {
		for _, n := range m {
			total += n
		}
	}
	if total != workers*perWorker {
		t.Fatalf("popped %d values, want %d", total, workers*perWorker)
	}
}

// TestEngineeredOptions exercises the contention-engineering options —
// padded cells and retry backoff — through the public constructors under
// concurrent load, on each constructor's default DCAS emulation.  The
// subtests named for BitLock keep the names they had when they ran on the
// bit-table emulation; BitLock is deleted and they now run on the
// constructor's default, so their history stays comparable by name.
func TestEngineeredOptions(t *testing.T) {
	t.Run("ArrayBitLockPaddedBackoff", func(t *testing.T) {
		hammer(t, NewArray[int](64, WithPaddedCells(), WithBackoff(BackoffConfig{})))
	})
	t.Run("ArrayEndLockBackoff", func(t *testing.T) {
		// EndLock is the array default: no provider option selects it.
		hammer(t, NewArray[int](64, WithBackoff(BackoffConfig{})))
	})
	t.Run("ArrayExplicitBackoff", func(t *testing.T) {
		hammer(t, NewArray[int](64,
			WithBackoff(BackoffConfig{MinSpins: 4, MaxSpins: 256})))
	})
	t.Run("ListBitLockBackoff", func(t *testing.T) {
		hammer(t, NewList[int](WithBackoff(BackoffConfig{})))
	})
	t.Run("ListDummyBitLockBackoff", func(t *testing.T) {
		hammer(t, NewList[int](WithDummyNodes(), WithBackoff(BackoffConfig{})))
	})
	t.Run("ListLFRCBackoff", func(t *testing.T) {
		hammer(t, NewList[int](WithLFRC(), WithBackoff(BackoffConfig{})))
	})
}
