package deque

import (
	"dcasdeque/internal/arena"
	"dcasdeque/internal/core/chaselev"
	"dcasdeque/internal/spec"
)

// ChaseLev is the native single-CAS work-stealing deque of Chase & Lev
// ("Dynamic Circular Work-Stealing Deque", SPAA 2005), carrying elements
// of type T.  Create with NewChaseLev.  Unlike the DCAS deques it needs
// no DCAS emulation at all: the owner's end runs on plain atomic stores
// and loads, and steals commit with one CompareAndSwap on a single top
// word — which makes it the fast backend for the owner-LIFO/thief-FIFO
// access pattern of a work-stealing scheduler (sched.WithChaseLev).
//
// The trade against the paper-faithful deques is generality:
//
//   - Chase–Lev is single-ended-push.  The owner end is mapped to
//     PushRight/PopRight and the steal end to PopLeft/PopLMany, matching
//     how sched already orients its deques (owner right, thieves left);
//     PushLeft returns ErrUnsupported.
//   - PushRight and PopRight are OWNER-ONLY: at most one goroutine may
//     use the right end (concurrent right-end calls race by design —
//     the algorithm's whole speedup comes from the owner not
//     synchronizing).  PopLeft and PopLMany are safe for any number of
//     goroutines.
//
// Storage grows: the circular array doubles when full and pushes only
// fail when the slot arena is exhausted (the maxNodes bound, as for
// List).  Retired arrays are kept reachable until the deque dies, so
// stale readers stay safe — the same no-recycling retirement discipline
// as the node arena's gc mode.
type ChaseLev[T any] struct {
	core  *chaselev.Deque
	slots *arena.Arena[T]
	bound uint64 // WithMemoryBound budget; 0 = unbounded
	inst  *instruments
}

// NewChaseLev returns an empty Chase–Lev work-stealing deque.  It is
// unbounded up to the arena's maxNodes bound (default 1<<20, settable
// with WithMaxNodes).  The max-nodes, memory-bound and telemetry options
// apply; WithDummyNodes and WithLFRC select list representations and are
// ignored here.
func NewChaseLev[T any](opts ...Option) *ChaseLev[T] {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	var inst *instruments
	var coreOpts []chaselev.Option
	if cfg.telemetry {
		// There is no DCAS provider to instrument; the DCAS counters stay
		// zero.
		inst = newInstruments(cfg.telemetryName, cfg.latency)
		coreOpts = append(coreOpts, chaselev.WithTelemetry(inst.sink))
	}
	d := &ChaseLev[T]{
		core:  chaselev.New(coreOpts...),
		slots: arena.New[T](cfg.maxNodes, arena.WithBlockSize(256)),
		bound: cfg.memBound,
		inst:  inst,
	}
	inst.bind(d.memSnapshot)
	return d
}

// Stats returns the deque's telemetry snapshot; ok is false (and the
// snapshot zero) unless the deque was built with WithTelemetry or
// WithTelemetryName.  The DCAS block is always zero for this backend —
// there is no emulation underneath; the end counters carry the
// take/steal/empty traffic and Right.Grows the array doublings.
func (d *ChaseLev[T]) Stats() (Stats, bool) {
	if d.inst == nil {
		return Stats{}, false
	}
	return d.inst.stats(), true
}

// CloseTelemetry removes the deque from the process-wide exporter if it
// was registered with WithTelemetryName.  Stats keeps working; only the
// exporter entry is dropped.  Safe to call regardless of configuration.
func (d *ChaseLev[T]) CloseTelemetry() { d.inst.close() }

// Cap reports the slot-arena bound: the most elements the deque can
// hold before pushes fail with ErrFull.
func (d *ChaseLev[T]) Cap() int { return d.slots.Cap() }

// box stores v in a fresh slot and returns its non-zero handle word.
func (d *ChaseLev[T]) box(v T) (uint64, bool) {
	idx, ok := d.slots.Alloc()
	if !ok {
		return 0, false
	}
	*d.slots.Get(idx) = v
	return d.slots.Handle(idx), true
}

// unbox retrieves and releases the slot behind a popped handle.
func (d *ChaseLev[T]) unbox(h uint64) T {
	idx, ok := d.slots.Resolve(h)
	if !ok {
		panic("deque: popped handle does not resolve (corrupt state)")
	}
	p := d.slots.Get(idx)
	v := *p
	var zero T
	*p = zero // do not retain references in recycled slots
	d.slots.Free(idx)
	return v
}

// PushLeft implements Deque.  Chase–Lev has no left push (the paper's
// deque is single-ended-push); it always returns ErrUnsupported without
// touching the deque.
func (d *ChaseLev[T]) PushLeft(v T) error { return ErrUnsupported }

// PushRight implements Deque.  OWNER-ONLY: see the type comment.  It
// fails only when the slot arena is exhausted (ErrFull) or the memory
// bound rejects it (ErrMemoryBound).
func (d *ChaseLev[T]) PushRight(v T) error {
	if err := d.admit(); err != nil {
		return err
	}
	h, ok := d.box(v)
	if !ok {
		return ErrFull
	}
	d.core.PushRight(h) // cannot fail: the array grows
	return nil
}

// PopLeft implements Deque: one steal.  Safe for any goroutine.
func (d *ChaseLev[T]) PopLeft() (T, error) {
	h, r := d.core.PopLeft()
	if r == spec.Empty {
		var zero T
		return zero, ErrEmpty
	}
	return d.unbox(h), nil
}

// PopRight implements Deque.  OWNER-ONLY: see the type comment.
func (d *ChaseLev[T]) PopRight() (T, error) {
	h, r := d.core.PopRight()
	if r == spec.Empty {
		var zero T
		return zero, ErrEmpty
	}
	return d.unbox(h), nil
}

// PopLMany implements Deque, strengthening its contract: each core
// claim takes a whole run of up to chaselev.DefaultSpan elements in ONE
// CompareAndSwap — an atomic multi-steal, not a loop of single-element
// windows — so a thief taking max ≤ 32 tasks pays exactly one RMW.
// Larger batches chain span-sized claims until max is reached or the
// deque is observed empty.  Safe for any goroutine.
func (d *ChaseLev[T]) PopLMany(max int) []T {
	return popMany(max, func(out []uint64) int {
		n := 0
		for n < len(out) {
			k := d.core.PopLeftMany(out[n:])
			if k == 0 {
				break
			}
			n += k
		}
		return n
	}, d.unbox)
}

// PopRMany implements Deque.  OWNER-ONLY: a batch of owner pops.
func (d *ChaseLev[T]) PopRMany(max int) []T {
	return popMany(max, d.core.PopRightMany, d.unbox)
}

// Items returns the deque's contents left to right.  It must only be
// called while no operations are in flight (tests, diagnostics).
func (d *ChaseLev[T]) Items() ([]T, error) {
	hs, err := d.core.Items()
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, len(hs))
	for _, h := range hs {
		idx, ok := d.slots.Resolve(h)
		if !ok {
			panic("deque: stored handle does not resolve")
		}
		out = append(out, *d.slots.Get(idx))
	}
	return out, nil
}

var _ Deque[int] = (*ChaseLev[int])(nil)
