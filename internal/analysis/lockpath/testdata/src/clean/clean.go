// Clean fixture: every window the analyzer tracks is balanced on all
// paths, spin windows contain only raw atomic operations, and each of the
// acknowledged idioms (defer, try-acquire, anchor mark, ownership
// transfer) appears in its disciplined form.  The analyzer must
// stay silent here.
package clean

import (
	"sync"
	"sync/atomic"
)

const EndLockBit uint64 = 1 << 63

type spinLock struct{ state atomic.Uint32 }

func (s *spinLock) Lock() {
	for !s.state.CompareAndSwap(0, 1) {
	}
}
func (s *spinLock) TryLock() bool { return s.state.CompareAndSwap(0, 1) }
func (s *spinLock) Unlock()       { s.state.Store(0) }

type word struct{ v atomic.Uint64 }

type box struct {
	lk spinLock
	v  atomic.Uint64
}

func (b *box) balanced() {
	b.lk.Lock()
	b.v.Add(1)
	b.lk.Unlock()
}

func (b *box) deferred() uint64 {
	b.lk.Lock()
	defer b.lk.Unlock()
	return b.v.Load()
}

func (b *box) tryBalanced() bool {
	if !b.lk.TryLock() {
		return false
	}
	b.v.Store(1)
	b.lk.Unlock()
	return true
}

func (b *box) earlyReturnReleased(stop bool) int {
	b.lk.Lock()
	if stop {
		b.lk.Unlock()
		return -1
	}
	b.v.Add(1)
	b.lk.Unlock()
	return 0
}

// Parking locks may block and allocate inside their window.
var mu sync.Mutex

func mutexAlloc(n int) []int {
	mu.Lock()
	s := make([]int, n)
	mu.Unlock()
	return s
}

// The end-lock protocol: mark transfers a conditionally-held anchor to
// its caller, which commits or restores via Store.
type endLock struct{}

//dequevet:lockpath-transfers a.v
func (p *endLock) mark(a *word, o uint64) (uint64, bool) {
	if a.v.CompareAndSwap(o, o|EndLockBit) {
		return o, true
	}
	return o, false
}

func dcasLike(p *endLock, a1, a2 *word, o1, o2, n1, n2 uint64) bool {
	v, ok := p.mark(a1, o1)
	if !ok {
		_ = v
		return false
	}
	if a2.v.CompareAndSwap(o2, n2) {
		a1.v.Store(n1)
		return true
	}
	a1.v.Store(o1)
	return false
}

// The inlined single-word fast path of the array deque: RawCAS-style
// anchor mark, commit with Store(new), restore with Store(old).
func inlineAnchor(anchor, cell *word, oldR, newR, oldS uint64) (uint64, bool) {
	if anchor.v.CompareAndSwap(oldR, oldR|EndLockBit) {
		if cell.v.CompareAndSwap(oldS, 0) {
			anchor.v.Store(newR)
			return oldS, true
		}
		anchor.v.Store(oldR)
	}
	return 0, false
}

// Ownership transfer in the two-lock provider's style: lockTwo returns
// holding both halves and declares it, so callers book the acquisition.
type pair struct {
	a, b spinLock
	w    word
}

//dequevet:lockpath-transfers p.a p.b
func lockTwo(p *pair) {
	p.a.Lock()
	p.b.Lock()
}

func usePair(p *pair) uint64 {
	lockTwo(p)
	v := p.w.v.Load()
	p.b.Unlock()
	p.a.Unlock()
	return v
}
