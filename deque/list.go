package deque

import (
	"dcasdeque/internal/arena"
	"dcasdeque/internal/core/listdeque"
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/spec"
)

// listCore is the operation vocabulary shared by the two list-deque
// representations: the deleted-bit core (Section 4 main text) and the
// dummy-node core (Figure 10, footnote 4).
type listCore interface {
	PushLeft(v uint64) spec.Result
	PushRight(v uint64) spec.Result
	PopLeft() (uint64, spec.Result)
	PopRight() (uint64, spec.Result)
	PopLeftMany(out []uint64) int
	PopRightMany(out []uint64) int
	Items() ([]uint64, error)
	// Compact completes pending physical deletions on both ends, freeing
	// spliced-out nodes (and retired dummies) now instead of at the next
	// same-side operation.
	Compact()
	// Occupancy returns the node arena's allocation ledger.
	Occupancy() arena.Occupancy
}

// List is the unbounded linked-list DCAS deque of Section 4, carrying
// elements of type T.  Create with NewList.  All methods are safe for
// concurrent use.
type List[T any] struct {
	core  listCore
	slots *arena.Arena[T]
	lfrc  bool   // core is the LFRC representation (Mem attribution)
	bound uint64 // WithMemoryBound budget; 0 = unbounded
	// nodeBytes is the core's per-node footprint, cached for the bound's
	// headroom estimate (a push costs one slot plus one node).
	nodeBytes uint64
	inst      *instruments
}

// WithDummyNodes selects the Figure 10 representation for NewList: the
// logical-deletion mark is carried by indirection through "delete-bit"
// dummy nodes instead of a flag bit packed into the sentinel pointers.
// Semantically identical; exists for hardware without spare pointer bits.
func WithDummyNodes() Option {
	return func(c *config) { c.dummyNodes = true }
}

// WithLFRC selects lock-free reference counting for node reclamation
// (the methodology of the paper's reference [12]): every node carries a
// count of shared and local references and is reclaimed deterministically
// when the last one disappears, instead of relying on the arena's gc or
// tagged-reuse modes.  Incompatible with WithDummyNodes (LFRC wins if
// combined).
func WithLFRC() Option {
	return func(c *config) { c.lfrc = true }
}

// NewList returns an empty list-based deque.  Pushes fail with ErrFull
// only if the internal node arena is exhausted (see WithMaxNodes).
func NewList[T any](opts ...Option) *List[T] {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	var inst *instruments
	coreOpts := []listdeque.Option{
		listdeque.WithMaxNodes(cfg.maxNodes + 2), // + the two sentinels
	}
	if cfg.telemetry {
		inst = newInstruments(cfg.telemetryName, cfg.latency)
		coreOpts = append(coreOpts,
			listdeque.WithProvider(dcas.InstrumentedAttr(dcas.Default(), inst.dcas)),
			listdeque.WithTelemetry(inst.sink))
	}
	var core listCore
	switch {
	case cfg.lfrc:
		core = listdeque.NewLFRC(coreOpts...)
	case cfg.dummyNodes:
		core = listdeque.NewDummy(coreOpts...)
	default:
		core = listdeque.New(coreOpts...)
	}
	d := &List[T]{
		core:      core,
		slots:     arena.New[T](cfg.maxNodes),
		lfrc:      cfg.lfrc,
		bound:     cfg.memBound,
		nodeBytes: core.Occupancy().SlotBytes,
		inst:      inst,
	}
	inst.bind(d.memSnapshot)
	return d
}

// Stats returns the deque's telemetry snapshot; ok is false (and the
// snapshot zero) unless the deque was built with WithTelemetry or
// WithTelemetryName.
func (d *List[T]) Stats() (Stats, bool) {
	if d.inst == nil {
		return Stats{}, false
	}
	return d.inst.stats(), true
}

// CloseTelemetry removes the deque from the process-wide exporter if it
// was registered with WithTelemetryName.  Stats keeps working; only the
// exporter entry is dropped.  Safe to call regardless of configuration.
func (d *List[T]) CloseTelemetry() { d.inst.close() }

func (d *List[T]) box(v T) (uint64, bool) {
	idx, ok := d.slots.Alloc()
	if !ok {
		return 0, false
	}
	*d.slots.Get(idx) = v
	return d.slots.Handle(idx), true
}

func (d *List[T]) unbox(h uint64) T {
	idx, ok := d.slots.Resolve(h)
	if !ok {
		panic("deque: popped handle does not resolve (corrupt state)")
	}
	p := d.slots.Get(idx)
	v := *p
	var zero T
	*p = zero
	d.slots.Free(idx)
	return v
}

func (d *List[T]) releaseUnpushed(h uint64) {
	idx, ok := d.slots.Resolve(h)
	if !ok {
		panic("deque: unpushed handle does not resolve")
	}
	var zero T
	*d.slots.Get(idx) = zero
	d.slots.Free(idx)
}

// PushLeft implements Deque.
func (d *List[T]) PushLeft(v T) error {
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
func (d *List[T]) PushRight(v T) error {
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

// PopLeft implements Deque.
func (d *List[T]) PopLeft() (T, error) {
	h, r := d.core.PopLeft()
	if r == spec.Empty {
		var zero T
		return zero, ErrEmpty
	}
	return d.unbox(h), nil
}

// PopRight implements Deque.
func (d *List[T]) PopRight() (T, error) {
	h, r := d.core.PopRight()
	if r == spec.Empty {
		var zero T
		return zero, ErrEmpty
	}
	return d.unbox(h), nil
}

// Compact completes the deque's deferred physical deletions on both
// ends now, freeing spliced-out nodes (and retired dummies) instead of
// leaving them to the next same-side operation.  Bounded deques run the
// same pass automatically before rejecting a push with ErrMemoryBound;
// calling it directly is useful before reading Mem at a quiescent point.
// Safe for concurrent use.
func (d *List[T]) Compact() { d.core.Compact() }

// Items returns the deque's contents left to right.  It must only be
// called while no operations are in flight (tests, diagnostics).
func (d *List[T]) Items() ([]T, error) {
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

var _ Deque[int] = (*List[int])(nil)
