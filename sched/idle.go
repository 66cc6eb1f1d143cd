package sched

import "sync/atomic"

// idleStack is the global set of parked workers: a lock-free Treiber
// stack over worker ids.  The head word packs a 32-bit ABA tag above a
// 32-bit id+1 (0 = empty); every successful CAS bumps the tag, so a
// pop that raced a pop/re-push of the same worker fails instead of
// installing a stale successor.  next[] is the intrusive successor
// table — a worker is on the stack at most once, so one slot per
// worker suffices, and slots are only trusted after the tagged CAS
// validates them.
//
// LIFO is the point, not an accident: the most recently parked worker
// is the one whose stack and deque metadata are still warm, so it is
// the one a wakeup should restart.
type idleStack struct {
	// head is the stack's only contended word.  padlayout compares fields
	// within one struct, so the isolation is declared on Scheduler.idle,
	// and head stays first so that field's offset is head's.
	//dequevet:packed id:32 tag:32
	head atomic.Uint64
	next []atomic.Uint32
}

// tagShift is the ABA tag's offset in the head word (checked against
// the //dequevet:packed declaration above by the stampwidth analyzer).
const tagShift = 32

func (st *idleStack) init(workers int) {
	st.next = make([]atomic.Uint32, workers)
}

// push adds a worker id.  The caller must not push an id that is
// already on the stack (the parking protocol guarantees this: a worker
// pushes only itself, and only after consuming its previous wake).
func (st *idleStack) push(id int) {
	for {
		old := st.head.Load()
		st.next[id].Store(uint32(old))
		if st.head.CompareAndSwap(old, (old>>tagShift+1)<<tagShift|uint64(id+1)) {
			return
		}
	}
}

// pop removes and returns the most recently pushed id, if any.
func (st *idleStack) pop() (int, bool) {
	for {
		old := st.head.Load()
		top := uint32(old)
		if top == 0 {
			return 0, false
		}
		succ := st.next[top-1].Load()
		if st.head.CompareAndSwap(old, (old>>tagShift+1)<<tagShift|uint64(succ)) {
			return int(top - 1), true
		}
	}
}
