package dcas

import (
	"sync"
	"testing"
)

// TestBackoffNilPolicyIsNoop checks that the disabled form (nil policy,
// zero cursor) never waits.
func TestBackoffNilPolicyIsNoop(t *testing.T) {
	var p *BackoffPolicy
	bo := p.Start()
	for i := 0; i < 100; i++ {
		bo.Wait()
	}
	if bo != (Backoff{}) {
		t.Fatalf("nil-policy cursor changed state: %+v", bo)
	}
	var zero Backoff
	zero.Wait() // must not panic
}

// TestBackoffBoundDoubling checks the exponential growth and the bound on
// the lock slow paths' policy: the spin budget doubles per Wait starting
// at MinSpins and, once past MaxSpins, every further Wait yields instead
// of spinning.
func TestBackoffBoundDoubling(t *testing.T) {
	p := &BackoffPolicy{MinSpins: lockBackoff.MinSpins, MaxSpins: 1 << 10}
	bo := p.Start()

	for want := p.MinSpins; want <= p.MaxSpins; want *= 2 {
		if bo.cur != want {
			t.Fatalf("cur = %d, want %d", bo.cur, want)
		}
		if _, spin := bo.step(); !spin {
			t.Fatalf("bound %d within MaxSpins yielded instead of spinning", want)
		}
	}
	// cur is now pinned above MaxSpins: all subsequent waits must be
	// yields, not spins, and leave the bound where it is.
	pinned := bo.cur
	if pinned != 2*p.MaxSpins {
		t.Fatalf("cur past the bound = %d, want %d", pinned, 2*p.MaxSpins)
	}
	for i := 0; i < 10; i++ {
		if spins, spin := bo.step(); spin {
			t.Fatalf("wait %d past the bound spun %d iterations", i, spins)
		}
		bo.Wait()
		if bo.cur != pinned {
			t.Fatalf("wait %d past the bound moved cur to %d", i, bo.cur)
		}
	}
}

// TestBackoffSpinAccounting checks that the per-wait spin count lands in
// the jitter window [cur/2, cur].
func TestBackoffSpinAccounting(t *testing.T) {
	p := &BackoffPolicy{MinSpins: 32, MaxSpins: 32}
	for trial := 0; trial < 50; trial++ {
		bo := p.Start()
		spun, spin := bo.step()
		if !spin || spun < 16 || spun > 32 {
			t.Fatalf("trial %d: spun %d iterations (spin=%v), want within [16, 32]", trial, spun, spin)
		}
	}
}

// TestBackoffJitterVaries checks that independent cursors do not produce
// one identical spin sequence (the lockstep pathology jitter must break).
func TestBackoffJitterVaries(t *testing.T) {
	p := &BackoffPolicy{MinSpins: 1 << 20, MaxSpins: 1 << 20}
	seen := map[uint64]bool{}
	for i := 0; i < 32; i++ {
		bo := p.Start()
		seen[bo.nextRand()] = true
	}
	if len(seen) < 2 {
		t.Fatalf("32 cursors produced %d distinct jitter streams", len(seen))
	}
}

// TestBackoffYieldOnlyPolicy checks the MaxSpins=0 configuration
// lockBackoff uses on single-P schedules: every wait is a yield from the
// start, and the bound never moves.
func TestBackoffYieldOnlyPolicy(t *testing.T) {
	p := &BackoffPolicy{MinSpins: lockBackoff.MinSpins, MaxSpins: 0}
	bo := p.Start()
	for i := 0; i < 5; i++ {
		if spins, spin := bo.step(); spin {
			t.Fatalf("yield-only policy spun %d iterations", spins)
		}
		bo.Wait()
	}
	if bo.cur != p.MinSpins || bo.rng != 0 {
		t.Fatalf("yield-only cursor moved: cur %d, rng %d", bo.cur, bo.rng)
	}
}

// TestSpinLockMutualExclusion hammers one spinlock from many goroutines
// incrementing an unsynchronized counter; any mutual-exclusion failure
// loses increments (and trips the race detector).
func TestSpinLockMutualExclusion(t *testing.T) {
	const (
		workers = 8
		rounds  = 20000
	)
	var lk spinLock
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				lk.Lock()
				counter++
				lk.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*rounds {
		t.Fatalf("counter = %d, want %d", counter, workers*rounds)
	}
}

// TestSpinLockTryLock checks the non-blocking acquisition path.
func TestSpinLockTryLock(t *testing.T) {
	var lk spinLock
	if !lk.TryLock() {
		t.Fatal("TryLock on an unlocked lock failed")
	}
	if lk.TryLock() {
		t.Fatal("TryLock on a held lock succeeded")
	}
	lk.Unlock()
	if !lk.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	lk.Unlock()
}

// TestAssignIDs checks eager token assignment: idempotent, unique, and
// consistent with the lazy path.
func TestAssignIDs(t *testing.T) {
	var a, b Loc
	AssignIDs(&a, &b)
	ida, idb := a.id.Load(), b.id.Load()
	if ida == 0 || idb == 0 {
		t.Fatal("AssignIDs left a token unassigned")
	}
	if ida == idb {
		t.Fatalf("duplicate tokens: %d", ida)
	}
	AssignIDs(&a, &b) // idempotent
	if a.id.Load() != ida || b.id.Load() != idb {
		t.Fatal("AssignIDs reassigned an existing token")
	}
	if a.lockID() != ida {
		t.Fatal("lockID disagrees with assigned token")
	}
}
