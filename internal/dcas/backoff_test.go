package dcas

import "testing"

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
