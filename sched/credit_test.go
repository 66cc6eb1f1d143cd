package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The credit tests check the life word's accounting directly; CI runs
// them under -cpu 1,2,4, since when a worker flushes depends on how the
// runtime interleaves the workers.

// parkedWorkers counts the ids on the idle stack.  The walk is racy
// while workers come and go, so it is bounded; once every worker is
// parked the stack is still and the count is exact.
func parkedWorkers(s *Scheduler) int {
	n := 0
	for id := uint32(s.idle.head.Load()); id != 0 && n <= len(s.workers); id = s.idle.next[id-1].Load() {
		n++
	}
	return n
}

// TestCreditFlushedBeforePark: after a fork-join run, once every worker
// has parked, the life word counts nothing — each worker handed its
// credit back before parking.
func TestCreditFlushedBeforePark(t *testing.T) {
	s := New()
	defer shutdownOK(t, s)
	var wg sync.WaitGroup
	var fib func(n int) Task
	fib = func(n int) Task {
		return func(w *Worker) {
			defer wg.Done()
			if n < 2 {
				return
			}
			wg.Add(2)
			w.Spawn(fib(n - 1))
			w.Spawn(fib(n - 2))
		}
	}
	wg.Add(1)
	if err := s.Submit(fib(15)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for parkedWorkers(s) < s.NumWorkers() {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers parked", parkedWorkers(s), s.NumWorkers())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if p := s.life.Load() & pendingMask; p != 0 {
		t.Fatalf("every worker parked, but the life word still counts %d pending", p)
	}
}

// TestCreditSurplusDrain: one worker runs more than 2×creditBatch stolen
// leaves, so it returns surplus credit to the life word mid-run, and
// Shutdown follows the tree's root at once, possibly before the root's
// worker has flushed.  The drain must still finish, run every task
// exactly once, and leave the word on exactly drainBit.
func TestCreditSurplusDrain(t *testing.T) {
	s := New(WithWorkers(2), WithTelemetry())
	const leaves = 4 * creditBatch
	var ran [leaves]atomic.Int32
	var wg sync.WaitGroup
	wg.Add(leaves)
	rootWorker := make(chan int, 1)
	err := s.Submit(func(w *Worker) {
		for i := range ran {
			w.Spawn(func(*Worker) {
				ran[i].Add(1)
				wg.Done()
			})
		}
		// Blocking here keeps this worker busy, so the other worker must
		// steal and run every leaf.
		wg.Wait()
		rootWorker <- w.ID()
	})
	if err != nil {
		t.Fatal(err)
	}
	root := <-rootWorker
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after the root: %v", err)
	}
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Errorf("leaf %d ran %d times, want 1", i, n)
		}
	}
	st, _ := s.Stats()
	if st.Total.Runs != leaves+1 {
		t.Errorf("Runs = %d, want %d", st.Total.Runs, leaves+1)
	}
	if thief := st.Workers[1-root]; thief.Runs <= 2*creditBatch || thief.Stolen == 0 {
		t.Errorf("thief ran %d tasks (%d stolen), want > %d stolen leaves", thief.Runs, thief.Stolen, 2*creditBatch)
	}
	if w := s.life.Load(); w != drainBit {
		t.Errorf("life = %#x after Shutdown, want drainBit alone", w)
	}
}
