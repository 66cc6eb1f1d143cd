package deque

import (
	"dcasdeque/internal/arena"
	"dcasdeque/internal/core/arraydeque"
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/spec"
)

// Array is the bounded array-based DCAS deque of Section 3, carrying
// elements of type T.  Create with NewArray.  All methods are safe for
// concurrent use.
type Array[T any] struct {
	core  *arraydeque.Deque
	slots *arena.Arena[T]
	bound uint64 // WithMemoryBound budget; 0 = unbounded
	inst  *instruments
}

// NewArray returns an empty array-based deque with the given capacity
// (≥ 1).  Capacity is exact: the deque holds at most capacity elements
// and pushes beyond that return ErrFull.
func NewArray[T any](capacity int, opts ...Option) *Array[T] {
	if capacity < 1 {
		panic("deque: capacity must be ≥ 1")
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	var inst *instruments
	var coreOpts []arraydeque.Option // none: the core's inlined EndLock default
	if cfg.telemetry {
		// Counting DCAS attempts needs a wrapped provider, which the core
		// drives through the generic (non-inlined) path.
		inst = newInstruments(cfg.telemetryName, cfg.latency)
		coreOpts = []arraydeque.Option{
			arraydeque.WithProvider(dcas.InstrumentedAttr(new(dcas.EndLock), inst.dcas)),
			arraydeque.WithTelemetry(inst.sink),
		}
	}
	// The slot arena needs headroom beyond capacity: a push allocates its
	// slot before discovering the deque is full, so slots for concurrent
	// losing pushes must exist.  2×capacity+64 makes allocation failure
	// unreachable in practice; if it ever fails the push reports ErrFull.
	d := &Array[T]{
		core:  arraydeque.New(capacity, coreOpts...),
		slots: arena.New[T](2*capacity+64, arena.WithBlockSize(256)),
		bound: cfg.memBound,
		inst:  inst,
	}
	inst.bind(d.memSnapshot)
	return d
}

// Stats returns the deque's telemetry snapshot; ok is false (and the
// snapshot zero) unless the deque was built with WithTelemetry or
// WithTelemetryName.
func (d *Array[T]) Stats() (Stats, bool) {
	if d.inst == nil {
		return Stats{}, false
	}
	return d.inst.stats(), true
}

// CloseTelemetry removes the deque from the process-wide exporter if it
// was registered with WithTelemetryName.  Stats keeps working; only the
// exporter entry is dropped.  Safe to call regardless of configuration.
func (d *Array[T]) CloseTelemetry() { d.inst.close() }

// Cap reports the deque's capacity.
func (d *Array[T]) Cap() int { return d.core.Cap() }

// box stores v in a fresh slot and returns its non-zero handle word.
func (d *Array[T]) box(v T) (uint64, bool) {
	idx, ok := d.slots.Alloc()
	if !ok {
		return 0, false
	}
	*d.slots.Get(idx) = v
	return d.slots.Handle(idx), true
}

// unbox retrieves and releases the slot behind a popped handle.
func (d *Array[T]) unbox(h uint64) T {
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

// PushLeft implements Deque.
func (d *Array[T]) PushLeft(v T) error {
	if err := d.admit(); err != nil {
		return err
	}
	h, ok := d.box(v)
	if !ok {
		return ErrFull
	}
	if d.core.PushLeft(h) == spec.Full {
		d.releaseUnpushed(h)
		return ErrFull
	}
	return nil
}

// PushRight implements Deque.
func (d *Array[T]) PushRight(v T) error {
	if err := d.admit(); err != nil {
		return err
	}
	h, ok := d.box(v)
	if !ok {
		return ErrFull
	}
	if d.core.PushRight(h) == spec.Full {
		d.releaseUnpushed(h)
		return ErrFull
	}
	return nil
}

// releaseUnpushed frees the slot of a handle that never entered the deque.
func (d *Array[T]) releaseUnpushed(h uint64) {
	idx, ok := d.slots.Resolve(h)
	if !ok {
		panic("deque: unpushed handle does not resolve")
	}
	var zero T
	*d.slots.Get(idx) = zero
	d.slots.Free(idx)
}

// PopLeft implements Deque.
func (d *Array[T]) PopLeft() (T, error) {
	h, r := d.core.PopLeft()
	if r == spec.Empty {
		var zero T
		return zero, ErrEmpty
	}
	return d.unbox(h), nil
}

// PopRight implements Deque.
func (d *Array[T]) PopRight() (T, error) {
	h, r := d.core.PopRight()
	if r == spec.Empty {
		var zero T
		return zero, ErrEmpty
	}
	return d.unbox(h), nil
}

// Items returns the deque's contents left to right.  It must only be
// called while no operations are in flight (tests, diagnostics).
func (d *Array[T]) Items() ([]T, error) {
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

var _ Deque[int] = (*Array[int])(nil)
