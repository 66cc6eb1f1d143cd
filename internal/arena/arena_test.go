package arena

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocFreeBasic(t *testing.T) {
	a := New[int](8, WithBlockSize(4))
	idx, ok := a.Alloc()
	if !ok {
		t.Fatal("Alloc failed on fresh arena")
	}
	*a.Get(idx) = 42
	if *a.Get(idx) != 42 {
		t.Fatal("slot does not hold stored value")
	}
	if a.Live() != 1 {
		t.Fatalf("Live = %d, want 1", a.Live())
	}
	a.Free(idx)
	if a.Live() != 0 {
		t.Fatalf("Live = %d, want 0", a.Live())
	}
}

func TestExhaustion(t *testing.T) {
	const cap = 5
	a := New[int](cap, WithBlockSize(2))
	var got []uint32
	for i := 0; i < cap; i++ {
		idx, ok := a.Alloc()
		if !ok {
			t.Fatalf("Alloc %d failed before capacity", i)
		}
		got = append(got, idx)
	}
	if _, ok := a.Alloc(); ok {
		t.Fatal("Alloc beyond capacity succeeded")
	}
	// Distinctness.
	seen := map[uint32]bool{}
	for _, idx := range got {
		if seen[idx] {
			t.Fatalf("index %d allocated twice", idx)
		}
		seen[idx] = true
	}
	// Freeing makes room again in reuse mode.
	a.Free(got[2])
	idx, ok := a.Alloc()
	if !ok {
		t.Fatal("Alloc after Free failed")
	}
	if idx != got[2] {
		t.Fatalf("expected recycled index %d, got %d", got[2], idx)
	}
}

func TestGCModeNeverRecycles(t *testing.T) {
	a := New[int](4, WithReuse(false))
	idx, _ := a.Alloc()
	a.Free(idx)
	for i := 0; i < 3; i++ {
		j, ok := a.Alloc()
		if !ok {
			t.Fatal("Alloc failed with capacity remaining")
		}
		if j == idx {
			t.Fatal("gc-mode arena recycled a freed slot")
		}
	}
	if _, ok := a.Alloc(); ok {
		t.Fatal("gc-mode arena exceeded capacity")
	}
	if a.Reusing() {
		t.Fatal("Reusing() = true in gc mode")
	}
}

// TestGCModeLedgerRetires checks the gc-mode side of the occupancy
// ledger: a Free retires its slot instead of recycling it, so frees
// stays zero, retired counts every release, and the conservation law
// holds with a nonzero retired term.
func TestGCModeLedgerRetires(t *testing.T) {
	a := New[int](8, WithReuse(false))
	for i := 0; i < 5; i++ {
		idx, ok := a.Alloc()
		if !ok {
			t.Fatalf("Alloc %d failed with capacity remaining", i)
		}
		a.Free(idx)
	}
	if _, ok := a.Alloc(); !ok {
		t.Fatal("Alloc failed with capacity remaining")
	}
	o := a.Occupancy()
	if o.Allocs != 6 || o.Retired != 5 || o.Frees != 0 || o.Live != 1 {
		t.Fatalf("ledger allocs=%d retired=%d frees=%d live=%d, want 6/5/0/1",
			o.Allocs, o.Retired, o.Frees, o.Live)
	}
	if err := o.Conserved(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerationAdvancesOnFree(t *testing.T) {
	a := New[int](2)
	idx, _ := a.Alloc()
	g0 := a.Gen(idx)
	if g0 < 1 {
		t.Fatalf("initial generation %d < 1", g0)
	}
	a.Free(idx)
	idx2, _ := a.Alloc()
	if idx2 != idx {
		t.Fatalf("expected recycled slot %d, got %d", idx, idx2)
	}
	if g := a.Gen(idx); g != g0+1 {
		t.Fatalf("generation after free = %d, want %d", g, g0+1)
	}
}

func TestHandleRoundTripAndStaleness(t *testing.T) {
	a := New[string](4)
	idx, _ := a.Alloc()
	*a.Get(idx) = "x"
	h := a.Handle(idx)
	if h < 1<<32 {
		t.Fatalf("handle %#x below 2³²; would collide with sentinel words", h)
	}
	got, ok := a.Resolve(h)
	if !ok || got != idx {
		t.Fatalf("Resolve = (%d, %v), want (%d, true)", got, ok, idx)
	}
	a.Free(idx)
	if _, ok := a.Resolve(h); ok {
		t.Fatal("stale handle resolved after Free")
	}
	if _, ok := a.Resolve(0); ok {
		t.Fatal("zero handle resolved")
	}
	if _, ok := a.Resolve(1<<32 | uint64(a.Cap()+7)); ok {
		t.Fatal("out-of-range handle resolved")
	}
}

func TestHandlePackingProperties(t *testing.T) {
	a := New[int](64)
	var idxs []uint32
	for i := 0; i < 64; i++ {
		idx, _ := a.Alloc()
		idxs = append(idxs, idx)
	}
	f := func(i, j uint8) bool {
		x, y := idxs[int(i)%len(idxs)], idxs[int(j)%len(idxs)]
		hx, hy := a.Handle(x), a.Handle(y)
		if (x == y) != (hx == hy) {
			return false
		}
		rx, ok := a.Resolve(hx)
		return ok && rx == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAllocFree hammers the shared freelist from many goroutines;
// every goroutine continuously allocates, writes a signature, validates it,
// and frees.  Any double-allocation corrupts another goroutine's signature.
func TestConcurrentAllocFree(t *testing.T) {
	const (
		workers = 8
		rounds  = 20000
		cap     = 64 // << workers*live to force freelist churn
	)
	a := New[uint64](cap, WithBlockSize(16))
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(sig uint64) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				idx, ok := a.Alloc()
				if !ok {
					continue // exhausted this instant; fine
				}
				p := a.Get(idx)
				*p = sig<<32 | uint64(i)
				if *p != sig<<32|uint64(i) {
					errs <- "slot overwritten while owned"
					a.Free(idx)
					return
				}
				a.Free(idx)
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if a.Live() != 0 {
		t.Fatalf("Live = %d after balanced alloc/free", a.Live())
	}
}

// TestConcurrentDistinctOwnership verifies mutual exclusion of ownership:
// goroutines hold several slots at once and record them; at every instant
// the sets must be disjoint, which we detect with per-slot ownership marks.
func TestConcurrentDistinctOwnership(t *testing.T) {
	const (
		workers = 6
		rounds  = 5000
		hold    = 4
		cap     = workers*hold + 8
	)
	type slot struct{ owner uint64 }
	a := New[slot](cap)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(me uint64) {
			defer wg.Done()
			held := make([]uint32, 0, hold)
			for i := 0; i < rounds; i++ {
				for len(held) < hold {
					idx, ok := a.Alloc()
					if !ok {
						break
					}
					p := a.Get(idx)
					if p.owner != 0 {
						errs <- "allocated slot already owned"
						return
					}
					p.owner = me
					held = append(held, idx)
				}
				for _, idx := range held {
					if a.Get(idx).owner != me {
						errs <- "ownership stolen while held"
						return
					}
				}
				for _, idx := range held {
					a.Get(idx).owner = 0
					a.Free(idx)
				}
				held = held[:0]
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestCacheBulkAllocation(t *testing.T) {
	a := New[int](256, WithBlockSize(32))
	c := NewCache(a, 8)
	// First Alloc should bulk-reserve; subsequent allocs should not grow
	// the bump pointer until the batch is consumed.
	idx0, ok := c.Alloc()
	if !ok {
		t.Fatal("cache Alloc failed")
	}
	bumpAfterFirst := a.bump.Load()
	for i := 1; i < 8; i++ {
		if _, ok := c.Alloc(); !ok {
			t.Fatalf("cache Alloc %d failed", i)
		}
	}
	if a.bump.Load() != bumpAfterFirst {
		t.Fatal("cache went to shared state within one batch")
	}
	if bumpAfterFirst != 8 {
		t.Fatalf("bulk reservation = %d slots, want 8", bumpAfterFirst)
	}
	c.Free(idx0)
	if c.Cached() == 0 {
		t.Fatal("freed slot not cached locally")
	}
}

func TestCacheSpillAndDrain(t *testing.T) {
	a := New[int](256)
	c := NewCache(a, 4)
	var idxs []uint32
	for i := 0; i < 16; i++ {
		idx, ok := c.Alloc()
		if !ok {
			t.Fatal("Alloc failed")
		}
		idxs = append(idxs, idx)
	}
	for _, idx := range idxs {
		c.Free(idx)
	}
	// Spilling must have happened: local cache bounded by 2*batch.
	if c.Cached() >= 2*4+1 {
		t.Fatalf("cache grew unbounded: %d", c.Cached())
	}
	c.Drain()
	if c.Cached() != 0 {
		t.Fatal("Drain left cached slots")
	}
	// All slots must be reachable again through the shared freelist.
	seen := map[uint32]bool{}
	for i := 0; i < 16; i++ {
		idx, ok := a.Alloc()
		if !ok {
			t.Fatalf("re-Alloc %d failed after Drain", i)
		}
		if seen[idx] {
			t.Fatalf("slot %d handed out twice", idx)
		}
		seen[idx] = true
	}
}

func TestCacheGCModeDrain(t *testing.T) {
	a := New[int](16, WithReuse(false))
	c := NewCache(a, 4)
	idx, ok := c.Alloc()
	if !ok {
		t.Fatal("Alloc failed")
	}
	// The first Alloc bulk-reserved fresh slots; those may sit in the
	// cache, but a freed slot must not rejoin it in gc mode.
	before := c.Cached()
	c.Free(idx)
	if c.Cached() != before {
		t.Fatal("gc-mode cache retained freed slot")
	}
	// The freed slot must never be handed out again.
	for {
		j, ok := c.Alloc()
		if !ok {
			break
		}
		if j == idx {
			t.Fatal("gc-mode cache recycled freed slot")
		}
	}
	c.Drain()
	if c.Cached() != 0 {
		t.Fatal("Drain left cached slots")
	}
}

func TestCacheExhaustionFallsBackToFreelist(t *testing.T) {
	a := New[int](8)
	// Exhaust the bump region directly.
	direct := make([]uint32, 0, 8)
	for {
		idx, ok := a.Alloc()
		if !ok {
			break
		}
		direct = append(direct, idx)
	}
	for _, idx := range direct {
		a.Free(idx)
	}
	// A cache must now be able to allocate via the shared freelist.
	c := NewCache(a, 4)
	got := 0
	for {
		_, ok := c.Alloc()
		if !ok {
			break
		}
		got++
	}
	if got != 8 {
		t.Fatalf("cache allocated %d slots from freelist, want 8", got)
	}
}

func TestConcurrentCaches(t *testing.T) {
	const (
		workers = 6
		rounds  = 20000
	)
	a := New[uint64](workers*16, WithBlockSize(16))
	var wg sync.WaitGroup
	var bad sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(sig uint64) {
			defer wg.Done()
			c := NewCache(a, 8)
			defer c.Drain()
			for i := 0; i < rounds; i++ {
				idx, ok := c.Alloc()
				if !ok {
					continue
				}
				p := a.Get(idx)
				*p = sig
				if *p != sig {
					bad.Store(sig, "slot shared between caches")
					return
				}
				c.Free(idx)
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	bad.Range(func(_, v any) bool { t.Fatal(v); return false })
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0)
}

func TestLocatePanicsOnUnallocatedBlock(t *testing.T) {
	a := New[int](1024, WithBlockSize(16))
	defer func() {
		if recover() == nil {
			t.Fatal("Get on never-allocated block did not panic")
		}
	}()
	a.Get(900)
}

func TestBlockSizeRounding(t *testing.T) {
	a := New[int](100, WithBlockSize(10)) // rounds to 16
	if a.blockSize != 16 {
		t.Fatalf("blockSize = %d, want 16", a.blockSize)
	}
	if len(a.blocks) != (100+15)/16 {
		t.Fatalf("blocks = %d", len(a.blocks))
	}
	a2 := New[int](4, WithBlockSize(-3))
	if a2.blockSize != 1 {
		t.Fatalf("blockSize = %d, want 1", a2.blockSize)
	}
}

func TestStatsCounts(t *testing.T) {
	a := New[int](8)
	i1, _ := a.Alloc()
	i2, _ := a.Alloc()
	a.Free(i1)
	if a.Allocs() != 2 || a.Frees() != 1 || a.Live() != 1 {
		t.Fatalf("stats = allocs %d frees %d live %d", a.Allocs(), a.Frees(), a.Live())
	}
	a.Free(i2)
}

// TestReserve checks that reserved slots are contiguous, excluded from the
// live accounting, and disjoint from subsequently allocated slots.
func TestReserve(t *testing.T) {
	a := New[int](8)
	first, ok := a.Reserve(3)
	if !ok {
		t.Fatal("Reserve(3) failed on an empty arena")
	}
	if a.Live() != 0 || a.Allocs() != 0 || a.Frees() != 0 {
		t.Fatalf("Reserve changed accounting: live=%d allocs=%d frees=%d",
			a.Live(), a.Allocs(), a.Frees())
	}
	seen := map[uint32]bool{first: true, first + 1: true, first + 2: true}
	for i := 0; i < 5; i++ {
		idx, ok := a.Alloc()
		if !ok {
			t.Fatalf("Alloc %d failed with capacity left", i)
		}
		if seen[idx] {
			t.Fatalf("Alloc returned reserved or duplicate slot %d", idx)
		}
		seen[idx] = true
	}
	// 3 reserved + 5 allocated = capacity 8: exhausted.
	if _, ok := a.Alloc(); ok {
		t.Fatal("Alloc succeeded past capacity")
	}
	if _, ok := a.Reserve(1); ok {
		t.Fatal("Reserve succeeded past capacity")
	}
	if a.Live() != 5 {
		t.Fatalf("live = %d, want 5", a.Live())
	}
}
