package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcasdeque/deque"
)

// shutdownOK drains s with a generous deadline and fails the test on
// error — the common epilogue.
func shutdownOK(t *testing.T, s *Scheduler) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// backends enumerates the deque implementations the scheduler must be
// agnostic over.
func backends() map[string]Option {
	return map[string]Option{
		"array":      WithArrayDeques(),
		"list":       WithListDeques(),
		"list-dummy": WithListDeques(deque.WithDummyNodes()),
		"list-lfrc":  WithListDeques(deque.WithLFRC()),
		"mutex":      WithMutexDeques(),
		"chaselev":   WithChaseLev(),
	}
}

// TestSubmitRunsEveryTask is the basic conservation contract: every
// submitted task runs exactly once, on every backend.
func TestSubmitRunsEveryTask(t *testing.T) {
	for name, backend := range backends() {
		t.Run(name, func(t *testing.T) {
			s := New(WithWorkers(4), backend, WithTelemetry())
			const n = 2000
			var ran [n]atomic.Int32
			var wg sync.WaitGroup
			wg.Add(n)
			for i := 0; i < n; i++ {
				i := i
				if err := s.Submit(func(*Worker) {
					ran[i].Add(1)
					wg.Done()
				}); err != nil {
					t.Fatalf("Submit(%d): %v", i, err)
				}
			}
			wg.Wait()
			shutdownOK(t, s)
			for i := range ran {
				if c := ran[i].Load(); c != 1 {
					t.Fatalf("task %d ran %d times", i, c)
				}
			}
			st, ok := s.Stats()
			if !ok {
				t.Fatal("telemetry enabled but Stats not ok")
			}
			if st.Total.Runs != n {
				t.Fatalf("Total.Runs = %d, want %d", st.Total.Runs, n)
			}
			if st.Total.Submits != n {
				t.Fatalf("Total.Submits = %d, want %d", st.Total.Submits, n)
			}
		})
	}
}

// TestForkJoinFib exercises Spawn: the classic exponential fork-join
// fib, result assembled through leaf counting.
func TestForkJoinFib(t *testing.T) {
	for name, backend := range backends() {
		t.Run(name, func(t *testing.T) {
			s := New(WithWorkers(4), backend)
			var leaves atomic.Uint64
			var wg sync.WaitGroup
			var fib func(n int) Task
			fib = func(n int) Task {
				return func(w *Worker) {
					defer wg.Done()
					if n < 2 {
						if n == 1 {
							leaves.Add(1)
						}
						return
					}
					wg.Add(2)
					w.Spawn(fib(n - 1))
					w.Spawn(fib(n - 2))
				}
			}
			wg.Add(1)
			if err := s.Submit(fib(20)); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			shutdownOK(t, s)
			// fib(20) counted as fib(1) leaves = 6765.
			if got := leaves.Load(); got != 6765 {
				t.Fatalf("fib leaves = %d, want 6765", got)
			}
		})
	}
}

// TestSingleWorker: degenerate configuration, no victims to steal from.
func TestSingleWorker(t *testing.T) {
	s := New(WithWorkers(1))
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		if err := s.Submit(func(w *Worker) {
			wg.Add(1)
			w.Spawn(func(*Worker) { n.Add(1); wg.Done() })
			n.Add(1)
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	shutdownOK(t, s)
	if n.Load() != 200 {
		t.Fatalf("ran %d tasks, want 200", n.Load())
	}
}

// TestBackpressure: a tiny injector saturates; TrySubmit must refuse
// with ErrSaturated while Submit blocks until space opens.
func TestBackpressure(t *testing.T) {
	s := New(WithWorkers(1), WithInjectorCapacity(2))
	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	// Occupy the single worker, and only proceed once it is provably
	// inside the task — otherwise it would drain whatever we pile into
	// the injector onto its own deque, unsaturating it.
	wg.Add(1)
	if err := s.Submit(func(*Worker) { close(started); <-gate; wg.Done() }); err != nil {
		t.Fatal(err)
	}
	<-started
	// Fill the injector; with the worker blocked, capacity 2 must refuse
	// within 2 accepts.
	saturated := false
	for i := 0; i < 3 && !saturated; i++ {
		err := s.TrySubmit(func(*Worker) { wg.Done() })
		switch err {
		case nil:
			wg.Add(1)
		case ErrSaturated:
			saturated = true
		default:
			t.Fatalf("TrySubmit: %v", err)
		}
	}
	if !saturated {
		t.Fatal("TrySubmit never saturated a capacity-2 injector")
	}
	// Submit must block now, then complete once the worker drains.
	unblocked := make(chan error, 1)
	go func() {
		wg.Add(1)
		unblocked <- s.Submit(func(*Worker) { wg.Done() })
	}()
	select {
	case err := <-unblocked:
		t.Fatalf("Submit returned %v against a saturated injector", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-unblocked; err != nil {
		t.Fatalf("Submit after drain: %v", err)
	}
	wg.Wait()
	shutdownOK(t, s)
}

// TestStealsHappen: one worker seeds a deep spawn tree; with telemetry
// on, the other workers must show successful steals.
func TestStealsHappen(t *testing.T) {
	s := New(WithWorkers(4), WithTelemetry())
	var wg sync.WaitGroup
	var grow func(depth int) Task
	grow = func(depth int) Task {
		return func(w *Worker) {
			defer wg.Done()
			if depth == 0 {
				time.Sleep(10 * time.Microsecond) // give thieves a window
				return
			}
			wg.Add(2)
			w.Spawn(grow(depth - 1))
			w.Spawn(grow(depth - 1))
		}
	}
	wg.Add(1)
	if err := s.Submit(grow(12)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	shutdownOK(t, s)
	st, _ := s.Stats()
	if st.Total.Steals == 0 {
		t.Fatalf("no steals across 4 workers on a 2^12 spawn tree: %+v", st.Total)
	}
	if st.Total.Stolen < st.Total.Steals {
		t.Fatalf("Stolen %d < Steals %d", st.Total.Stolen, st.Total.Steals)
	}
}

// TestDequeOverflowInline: per-worker deques of capacity 1 force the
// spawn overflow path (injector, then inline execution); conservation
// must hold regardless.
func TestDequeOverflowInline(t *testing.T) {
	s := New(WithWorkers(2), WithDequeCapacity(1), WithInjectorCapacity(1))
	var n atomic.Int64
	var wg sync.WaitGroup
	var grow func(depth int) Task
	grow = func(depth int) Task {
		return func(w *Worker) {
			defer wg.Done()
			n.Add(1)
			if depth == 0 {
				return
			}
			wg.Add(2)
			w.Spawn(grow(depth - 1))
			w.Spawn(grow(depth - 1))
		}
	}
	wg.Add(1)
	if err := s.Submit(grow(10)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	shutdownOK(t, s)
	if want := int64(1<<11 - 1); n.Load() != want {
		t.Fatalf("ran %d tasks, want %d", n.Load(), want)
	}
}

// TestKeepWakeParked is the lost-wakeup regression for the keep() path:
// when work arrives in a worker's deque only via a thief's surplus
// re-push (a batch steal or injector drain keeping its extras), a
// parked worker must be woken to go steal it.  Without keep's wake the
// task below would sit in worker 0's deque with every worker parked and
// no other wake source, and the test would time out.
func TestKeepWakeParked(t *testing.T) {
	s := New(WithWorkers(2), WithTelemetry(), WithSpinRounds(1))
	defer shutdownOK(t, s)
	// No work has ever been submitted, so both workers park as soon as
	// they spin out.  Parks is counted just before the blocking receive,
	// so poll until both have reached it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := s.Stats()
		if st.Total.Parks >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never parked: %+v", st.Total)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Simulate the tail of a batch steal: surplus re-pushed through
	// keep(), exactly as a thief would.  The task is "already pending"
	// from keep's point of view, so account for it on the life word the
	// way Submit's acquire would have.
	ran := make(chan int, 1)
	s.life.Add(1)
	s.workers[0].keep([]Task{func(w *Worker) { ran <- w.ID() }})
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("no worker woke to run surplus re-pushed via keep()")
	}
}

// TestIdleStack exercises the Treiber stack directly, including the
// at-most-once discipline under concurrent push/pop.
func TestIdleStack(t *testing.T) {
	var st idleStack
	st.init(8)
	if _, ok := st.pop(); ok {
		t.Fatal("pop on empty stack succeeded")
	}
	st.push(3)
	st.push(5)
	if id, ok := st.pop(); !ok || id != 5 {
		t.Fatalf("pop = %d,%v; want 5 (LIFO)", id, ok)
	}
	if id, ok := st.pop(); !ok || id != 3 {
		t.Fatalf("pop = %d,%v; want 3", id, ok)
	}

	// Concurrent: ids are tokens — only the goroutine that popped an id
	// may push it back (the same ownership discipline parking gives the
	// real stack).  After the churn, exactly the original ids remain.
	for id := 0; id < 8; id++ {
		st.push(id)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				if id, ok := st.pop(); ok {
					st.push(id)
				}
			}
		}()
	}
	wg.Wait()
	seen := map[int]bool{}
	for {
		id, ok := st.pop()
		if !ok {
			break
		}
		if seen[id] {
			t.Fatalf("id %d popped twice after churn", id)
		}
		seen[id] = true
	}
	if len(seen) != 8 {
		t.Fatalf("stack holds %d ids after churn, want 8", len(seen))
	}
}
