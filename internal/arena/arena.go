// Package arena provides a concurrent, index-addressed object arena used
// as the storage allocator beneath the deque implementations.
//
// The paper assumes "a storage allocation/collection mechanism as in Lisp
// and the Java programming language" and notes (Section 2, footnote 2) that
// "the problem of implementing a non-blocking storage allocator is not
// addressed in this paper but would need to be solved to produce a
// completely non-blocking deque implementation".  This package is that
// substrate, solved three ways:
//
//   - gc mode (reuse disabled): slots are allocated by an atomic bump
//     pointer and never recycled during the arena's lifetime, which gives
//     exactly the no-ABA guarantee the paper obtains from a garbage
//     collector.  The arena itself is reclaimed by Go's GC when dropped.
//   - reuse mode: freed slots are recycled through a lock-free Treiber
//     freelist; a per-slot generation counter makes recycled references
//     distinguishable (tagged pointers), preventing ABA.
//   - bulk mode (Cache): slots are allocated and freed in batches through
//     a thread-local cache, reproducing the key idea of the follow-up
//     "Hat Trick" algorithm [24] — "list nodes to be allocated in bulk and
//     reused before being reclaimed, thereby significantly reducing the
//     overhead of frequent allocation".
//
// Slots are identified by dense uint32 indices so that a (index,
// generation, flag-bit) triple fits into one 64-bit word that DCAS can
// operate on — raw Go pointers cannot be packed with flag bits in a
// GC-safe way.
package arena

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"dcasdeque/internal/dcas"
)

// Nil is the reserved "no slot" index.  Valid slot indices returned by
// Alloc are in [0, Cap); Nil is math.MaxUint32 and is never allocated.
const Nil uint32 = ^uint32(0)

// block is one contiguous chunk of slots with its parallel metadata.
type block[T any] struct {
	items []T
	// next holds freelist links as idx+1 (0 = end of list).
	next []atomic.Uint32
	// gen holds per-slot generation counters; initialized to 1 on first
	// allocation of the block and incremented on every Free, so a handle
	// (gen<<32 | idx+1) is always ≥ 2³² and never repeats for one slot.
	gen []atomic.Uint32
}

// Arena is a fixed-capacity concurrent slot allocator.  All methods are
// safe for concurrent use.  An Arena must be created with New.
//
// The fields form four groups, each in its own false-sharing range
// (dcas.FalseSharingRange): the read-mostly header that every locate and
// Resolve reads, the bump pointer, the freelist head, and the occupancy
// ledger.  Every Alloc and Free writes the freelist head and the ledger,
// from whichever core runs it; sharing a line with the header would turn
// each of those writes into a cache miss on the other core's next slot
// lookup.
type Arena[T any] struct {
	// Read-mostly header: set by New (each blocks element is published
	// once, by ensureBlock) and read on every slot access.
	blockSize  int // power of two
	blockShift uint
	capacity   int
	reuse      bool
	blocks     []atomic.Pointer[block[T]]
	slotBytes  uint64

	_    dcas.CacheLinePad
	bump atomic.Int64 // next never-allocated index
	_    dcas.CacheLinePad
	free atomic.Uint64 // Treiber head: tag<<32 | idx+1
	_    dcas.CacheLinePad

	// Occupancy ledger.  live is an independent counter, NOT derived from
	// allocs−frees, so the conservation invariant
	//
	//	allocs == live + frees + retired
	//
	// is a real crosscheck on the allocator (a lost or double count on any
	// path breaks it) rather than a tautology.  frees counts slots returned
	// to the freelist (reuse mode); retired counts slots whose storage was
	// permanently retired (gc mode).  highWater tracks the maximum observed
	// live count (racy max: exact when quiescent, a close lower bound under
	// concurrency).  slabs counts published blocks and only grows.
	allocs    atomic.Uint64
	frees     atomic.Uint64
	retired   atomic.Uint64
	live      atomic.Int64
	highWater atomic.Int64
	slabs     atomic.Uint64
	_         dcas.CacheLinePad
}

// Occupancy is a point-in-time snapshot of an arena's ledger.  Taken while
// the arena is quiescent it is exact and Conserved reports nil; taken
// mid-churn the counters may straddle an in-flight Alloc or Free.
type Occupancy struct {
	Allocs    uint64 // successful Alloc calls
	Frees     uint64 // slots recycled through the freelist (reuse mode)
	Retired   uint64 // slots permanently retired (gc mode)
	Live      int64  // currently allocated slots
	HighWater int64  // maximum Live ever observed
	Slabs     uint64 // blocks published (monotone: slabs are never unmapped)
	SlabBytes uint64 // bytes held by published blocks (items+next+gen)
	SlotBytes uint64 // per-slot footprint: sizeof(T) + per-slot metadata
	Cap       uint64 // slot capacity
}

// Conserved checks the conservation invariant allocs == live + frees +
// retired, returning a descriptive error when it does not hold.  Only
// meaningful on quiescent snapshots.
func (o Occupancy) Conserved() error {
	if o.Live < 0 {
		return fmt.Errorf("arena: negative live count %d", o.Live)
	}
	if got := uint64(o.Live) + o.Frees + o.Retired; got != o.Allocs {
		return fmt.Errorf("arena: conservation violated: allocs=%d live=%d frees=%d retired=%d (live+frees+retired=%d)",
			o.Allocs, o.Live, o.Frees, o.Retired, got)
	}
	return nil
}

// LiveBytes reports the bytes held by live slots.
func (o Occupancy) LiveBytes() uint64 { return uint64(o.Live) * o.SlotBytes }

// Option configures an Arena.
type Option func(*config)

type config struct {
	blockSize int
	reuse     bool
}

// WithBlockSize sets the slot count per block; it is rounded up to a power
// of two.  The default is 1024.
func WithBlockSize(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.blockSize = n
	}
}

// WithReuse enables or disables slot recycling.  With reuse disabled the
// arena behaves like the paper's garbage-collected heap: a freed slot's
// storage is never handed out again, so stale references can never be
// confused with live ones (no ABA).  The default is enabled.
func WithReuse(on bool) Option {
	return func(c *config) { c.reuse = on }
}

// New returns an arena able to hold up to capacity live slots of type T.
func New[T any](capacity int, opts ...Option) *Arena[T] {
	if capacity < 1 {
		panic("arena: capacity must be ≥ 1")
	}
	cfg := config{blockSize: 1024, reuse: true}
	for _, o := range opts {
		o(&cfg)
	}
	bs := 1
	shift := uint(0)
	for bs < cfg.blockSize {
		bs <<= 1
		shift++
	}
	nBlocks := (capacity + bs - 1) / bs
	var probe T
	return &Arena[T]{
		blockSize:  bs,
		blockShift: shift,
		capacity:   capacity,
		reuse:      cfg.reuse,
		blocks:     make([]atomic.Pointer[block[T]], nBlocks),
		// Per-slot footprint: the item plus its parallel freelist link and
		// generation counter (4 bytes each).
		slotBytes: uint64(unsafe.Sizeof(probe)) + 8,
	}
}

// Cap reports the arena's slot capacity.
func (a *Arena[T]) Cap() int { return a.capacity }

// Reusing reports whether freed slots are recycled.
func (a *Arena[T]) Reusing() bool { return a.reuse }

// Live reports the number of currently allocated slots (approximate under
// concurrency, exact when quiescent).
func (a *Arena[T]) Live() int {
	return int(a.live.Load())
}

// Allocs reports the total number of successful Alloc calls.
func (a *Arena[T]) Allocs() uint64 { return a.allocs.Load() }

// Frees reports the total number of Free calls (recycled plus retired).
func (a *Arena[T]) Frees() uint64 { return a.frees.Load() + a.retired.Load() }

// SlotBytes reports the per-slot footprint in bytes: sizeof(T) plus the
// slot's parallel metadata (freelist link and generation counter).
func (a *Arena[T]) SlotBytes() uint64 { return a.slotBytes }

// Occupancy returns a snapshot of the arena's ledger.  The counters are
// loaded individually, so a snapshot taken mid-churn may straddle an
// in-flight operation; quiescent snapshots are exact and satisfy
// Occupancy.Conserved.
func (a *Arena[T]) Occupancy() Occupancy {
	slabs := a.slabs.Load()
	return Occupancy{
		Frees:     a.frees.Load(),
		Retired:   a.retired.Load(),
		Live:      a.live.Load(),
		HighWater: a.highWater.Load(),
		Allocs:    a.allocs.Load(),
		Slabs:     slabs,
		SlabBytes: slabs * uint64(a.blockSize) * a.slotBytes,
		SlotBytes: a.slotBytes,
		Cap:       uint64(a.capacity),
	}
}

// countAlloc records one successful allocation in the ledger and advances
// the live high-water mark.  The max update is a racy read-then-store:
// under contention a concurrent higher value can be overwritten, so
// HighWater is a tight lower bound, exact when quiescent.
func (a *Arena[T]) countAlloc() {
	a.allocs.Add(1)
	l := a.live.Add(1)
	if hw := a.highWater.Load(); l > hw {
		a.highWater.Store(l)
	}
}

// countFree records one Free in the ledger, splitting by reclamation
// class: recycled (reuse mode) vs retired (gc mode).
func (a *Arena[T]) countFree() {
	a.live.Add(-1)
	if a.reuse {
		a.frees.Add(1)
	} else {
		a.retired.Add(1)
	}
}

// ensureBlock returns block b, publishing it first if necessary.  Multiple
// threads may race to create a block; exactly one CAS wins and the losers'
// allocations are dropped for the collector.
func (a *Arena[T]) ensureBlock(b int) *block[T] {
	if blk := a.blocks[b].Load(); blk != nil {
		return blk
	}
	n := a.blockSize
	blk := &block[T]{
		items: make([]T, n),
		next:  make([]atomic.Uint32, n),
		gen:   make([]atomic.Uint32, n),
	}
	for i := range blk.gen {
		blk.gen[i].Store(1)
	}
	if a.blocks[b].CompareAndSwap(nil, blk) {
		a.slabs.Add(1)
		return blk
	}
	return a.blocks[b].Load()
}

// locate returns the block and in-block offset for idx.
func (a *Arena[T]) locate(idx uint32) (*block[T], int) {
	b := int(idx) >> a.blockShift
	blk := a.blocks[b].Load()
	if blk == nil {
		panic(fmt.Sprintf("arena: access to unallocated block %d (idx %d)", b, idx))
	}
	return blk, int(idx) & (a.blockSize - 1)
}

// popFree removes one slot from the freelist, or returns (Nil, false).
func (a *Arena[T]) popFree() (uint32, bool) {
	for {
		h := a.free.Load()
		idxPlus1 := uint32(h)
		if idxPlus1 == 0 {
			return Nil, false
		}
		idx := idxPlus1 - 1
		blk, off := a.locate(idx)
		nxt := blk.next[off].Load()
		tag := h >> 32
		if a.free.CompareAndSwap(h, (tag+1)<<32|uint64(nxt)) {
			return idx, true
		}
	}
}

// pushFree adds one slot to the freelist.
func (a *Arena[T]) pushFree(idx uint32) {
	blk, off := a.locate(idx)
	for {
		h := a.free.Load()
		blk.next[off].Store(uint32(h))
		tag := h >> 32
		if a.free.CompareAndSwap(h, (tag+1)<<32|uint64(idx+1)) {
			return
		}
	}
}

// bumpAlloc reserves n fresh contiguous slots; it returns the first index
// and how many were actually reserved (0 if the arena is exhausted).
func (a *Arena[T]) bumpAlloc(n int) (uint32, int) {
	for {
		cur := a.bump.Load()
		if cur >= int64(a.capacity) {
			return Nil, 0
		}
		take := int64(n)
		if cur+take > int64(a.capacity) {
			take = int64(a.capacity) - cur
		}
		if a.bump.CompareAndSwap(cur, cur+take) {
			first := uint32(cur)
			// Make sure every touched block exists before returning.
			for b := int(cur) >> a.blockShift; b <= int(cur+take-1)>>a.blockShift; b++ {
				a.ensureBlock(b)
			}
			return first, int(take)
		}
	}
}

// Alloc reserves one slot and returns its index.  ok is false when the
// arena is exhausted — the condition under which the deque's push
// operations return "full" ("In the actual implementation, the push
// operations return 'full' in the case that the memory allocator fails",
// Section 2.2, footnote 3).  The slot's contents are whatever the previous
// user left there (or the zero value for a fresh slot); callers initialize
// all fields before publishing the slot.
func (a *Arena[T]) Alloc() (uint32, bool) {
	if a.reuse {
		if idx, ok := a.popFree(); ok {
			a.countAlloc()
			return idx, true
		}
	}
	idx, n := a.bumpAlloc(1)
	if n == 0 {
		return Nil, false
	}
	a.countAlloc()
	return idx, true
}

// Reserve permanently claims n fresh contiguous slots and returns the
// first index, or (Nil, false) if fewer than n contiguous slots remain.
// Reserved slots are invisible to the allocation accounting: they are
// never freed, never recycled, and do not count toward Live, Allocs or
// Frees.  The deque constructors use Reserve to place padding between
// eagerly allocated hot nodes (the list deques' sentinels) so they land
// on separate cache lines without perturbing the live-node invariants the
// correctness tests check.
func (a *Arena[T]) Reserve(n int) (uint32, bool) {
	if n < 1 {
		return Nil, false
	}
	first, got := a.bumpAlloc(n)
	if got < n {
		// Roll forward: the partially reserved tail slots simply stay
		// unused; the arena is effectively exhausted anyway.
		return Nil, false
	}
	return first, true
}

// Free returns a slot to the arena and bumps its generation so that stale
// tagged references can never match it again.  In gc mode the slot's
// storage is retired rather than recycled.  Freeing a slot twice without an
// intervening Alloc is a caller bug; it is detectable via Gen in tests but
// not checked here.
func (a *Arena[T]) Free(idx uint32) {
	blk, off := a.locate(idx)
	blk.gen[off].Add(1)
	a.countFree()
	if a.reuse {
		a.pushFree(idx)
	}
}

// Get returns a pointer to the slot's object.  The pointer remains valid
// for the arena's lifetime, but its contents may be recycled after Free in
// reuse mode.
func (a *Arena[T]) Get(idx uint32) *T {
	blk, off := a.locate(idx)
	return &blk.items[off]
}

// Gen returns the slot's current generation counter (≥ 1 once allocated).
func (a *Arena[T]) Gen(idx uint32) uint32 {
	blk, off := a.locate(idx)
	return blk.gen[off].Load()
}

// Handle packs the slot index with its current generation into a non-zero
// 64-bit word: gen<<32 | idx+1.  Handles are the value-words stored in
// deques by the public API; because gen ≥ 1, a handle is always ≥ 2³² and
// can never collide with the distinguished null/sentinel words.
func (a *Arena[T]) Handle(idx uint32) uint64 {
	return uint64(a.Gen(idx))<<32 | uint64(idx+1)
}

// Resolve unpacks a handle into its slot index, reporting whether the
// handle's generation still matches the slot (i.e. the slot has not been
// freed since the handle was made).
func (a *Arena[T]) Resolve(h uint64) (uint32, bool) {
	if uint32(h) == 0 {
		return Nil, false
	}
	idx := uint32(h) - 1
	if int(idx) >= a.capacity {
		return Nil, false
	}
	b := int(idx) >> a.blockShift
	if a.blocks[b].Load() == nil {
		return Nil, false
	}
	return idx, a.Gen(idx) == uint32(h>>32)
}
