package dcas

import (
	"runtime"
	"sync/atomic"
)

// This file provides the contention-management engine of the lock slow
// paths — the spinlock's and EndLock's wait for a marked anchor: bounded
// exponential backoff with jitter.  A waiter that re-polls the lock word
// at full speed keeps the line bouncing between cores while the holder
// needs it to release; each waiter instead pauses for a randomized,
// exponentially growing, bounded interval between polls.
//
// The deque algorithms' own retry loops do not back off: a failed DCAS
// retries at once, as in the paper's machine model.  Operation-level
// backoff did not pay on the measured host (DESIGN.md §6).

// BackoffPolicy configures the backoff behaviour.  A policy is immutable
// after creation and may be shared by any number of goroutines; each
// wait episode derives its own Backoff cursor from it with Start.
//
// A nil *BackoffPolicy means "no backoff": Start returns a cursor whose
// Wait is a no-op.
type BackoffPolicy struct {
	// MinSpins is the initial spin bound (iterations of a pause loop).
	MinSpins uint32
	// MaxSpins caps the exponentially growing spin bound.  Once the bound
	// exceeds MaxSpins — or if MaxSpins is 0, from the first Wait — the
	// waiter yields the processor (runtime.Gosched) instead of spinning.
	// MaxSpins = 0 is the right setting for GOMAXPROCS=1, where spinning
	// burns the time slice the lock holder needs.
	MaxSpins uint32
}

// backoffSeed perturbs each cursor's jitter stream so concurrent
// goroutines do not back off in lockstep (which would make them re-collide
// on retry — the exact pathology jitter exists to break).
var backoffSeed atomic.Uint64

// Backoff is one wait episode's cursor: the current bound and jitter
// state.  It lives on the waiter's stack, so the backoff is per-goroutine
// by construction, as the contention-management literature prescribes.
// The zero value (or one started from a nil policy) never waits.
type Backoff struct {
	pol *BackoffPolicy
	cur uint32 // current spin bound; doubles per Wait up to pol.MaxSpins
	rng uint64 // xorshift64 jitter state, never zero once started
}

// Start derives a fresh cursor.  It is valid on a nil policy.  Start does
// no atomic work: the jitter stream is only seeded (one shared-counter
// increment) on the first Wait that actually spins.
func (p *BackoffPolicy) Start() Backoff {
	if p == nil {
		return Backoff{}
	}
	return Backoff{pol: p, cur: p.MinSpins}
}

// nextRand steps the xorshift64 jitter generator, seeding it on first use.
func (b *Backoff) nextRand() uint64 {
	x := b.rng
	if x == 0 {
		x = backoffSeed.Add(0x9e3779b97f4a7c15) // golden-ratio increments
		x ^= x << 13
		x ^= x >> 7
		if x == 0 {
			x = 1
		}
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	b.rng = x
	return x
}

// Wait blocks the caller for the cursor's current backoff interval and
// advances the bound: a jittered spin of [cur/2, cur] pause iterations
// while the bound is within MaxSpins, a scheduler yield beyond it.  On a
// cursor with no policy it returns immediately.
func (b *Backoff) Wait() {
	if b.pol == nil {
		return
	}
	spins, spin := b.step()
	if !spin {
		runtime.Gosched()
		return
	}
	for i := uint32(0); i < spins; i++ {
		cpuRelax()
	}
}

// step advances a cursor with a policy by one Wait and reports what that
// Wait does: spin for spins pause iterations, or yield when spin is false.
func (b *Backoff) step() (spins uint32, spin bool) {
	n := b.cur
	if n == 0 || n > b.pol.MaxSpins {
		return 0, false
	}
	b.cur = n * 2
	return n/2 + uint32(b.nextRand())%(n-n/2+1), true // jitter: [n/2, n]
}

// cpuRelax is one iteration of the pause loop.  Go exposes no PAUSE/YIELD
// intrinsic; an empty no-inline call is a few cycles of pipeline work the
// compiler cannot eliminate, which is all the spin loop needs.
//
//go:noinline
func cpuRelax() {}
