package lfrc

import (
	"runtime"
	"sync"
	"testing"

	"dcasdeque/internal/dcas"
)

func TestNewAddRefReleaseLifecycle(t *testing.T) {
	p := NewPool[int](8, nil, nil)
	r, ok := p.New(42)
	if !ok {
		t.Fatal("New failed")
	}
	if *p.Get(r) != 42 {
		t.Fatal("value lost")
	}
	if p.Live() != 1 {
		t.Fatalf("Live = %d", p.Live())
	}
	p.AddRef(r)  // rc = 2
	p.Release(r) // rc = 1
	if p.Live() != 1 {
		t.Fatal("object died with a reference outstanding")
	}
	p.Release(r) // rc = 0: freed
	if p.Live() != 0 {
		t.Fatalf("Live = %d after final release", p.Live())
	}
	// The reference is now stale; Get must detect it.
	defer func() {
		if recover() == nil {
			t.Fatal("Get on stale ref did not panic")
		}
	}()
	p.Get(r)
}

func TestReleaseChainsIteratively(t *testing.T) {
	// A long singly linked chain must be fully reclaimed by releasing the
	// head, without stack overflow.
	type link struct{ next Ref }
	const n = 100000
	p := NewPool[link](n+1, nil, func(l *link, release func(Ref)) {
		release(l.next)
	})
	head := Nil
	for i := 0; i < n; i++ {
		r, ok := p.New(link{next: head})
		if !ok {
			t.Fatal("pool exhausted")
		}
		head = r // transfer: the new node's field owns the old head ref
	}
	if p.Live() != n {
		t.Fatalf("Live = %d, want %d", p.Live(), n)
	}
	p.Release(head)
	if p.Live() != 0 {
		t.Fatalf("Live = %d after releasing chain head", p.Live())
	}
}

func TestLoadTakesCountedRef(t *testing.T) {
	p := NewPool[int](8, nil, nil)
	var loc dcas.Loc
	r, _ := p.New(7)
	p.Store(&loc, r) // loc: +1 (rc=2)
	p.Release(r)     // our local ref gone (rc=1: loc's)

	got := p.Load(&loc)
	if got == Nil || *p.Get(got) != 7 {
		t.Fatal("Load did not return the stored ref")
	}
	// We own a ref now; clearing the location must not kill the object.
	p.Store(&loc, Nil)
	if p.Live() != 1 {
		t.Fatal("object died while we hold a Load reference")
	}
	if *p.Get(got) != 7 {
		t.Fatal("value corrupted")
	}
	p.Release(got)
	if p.Live() != 0 {
		t.Fatalf("Live = %d", p.Live())
	}
	if p.Load(&loc) != Nil {
		t.Fatal("Load of Nil location returned a ref")
	}
}

func TestCASTransfersCounts(t *testing.T) {
	p := NewPool[int](8, nil, nil)
	var loc dcas.Loc
	a, _ := p.New(1)
	b, _ := p.New(2)
	p.Store(&loc, a)

	if !p.CAS(&loc, a, b) {
		t.Fatal("CAS failed")
	}
	// a: our local ref only; b: ours + loc's.
	p.Release(a)
	if p.Live() != 1 {
		t.Fatalf("Live = %d; a should be dead, b alive", p.Live())
	}
	if p.CAS(&loc, a, b) {
		t.Fatal("CAS with wrong old succeeded")
	}
	p.Release(b)
	if p.Live() != 1 {
		t.Fatal("b should survive through loc's reference")
	}
	got := p.Load(&loc)
	p.Store(&loc, Nil)
	p.Release(got)
	if p.Live() != 0 {
		t.Fatalf("Live = %d at end", p.Live())
	}
}

// TestConcurrentLoadReleaseRace is the LFRC acid test: one set of threads
// continuously swaps fresh objects through a shared location (releasing
// the old ones) while another set Loads the location and uses the value.
// Without the DCAS in Load, a loader could increment a freed object's
// count and read recycled memory; the generation check would panic.
func TestConcurrentLoadReleaseRace(t *testing.T) {
	const (
		writers = 2
		readers = 4
		rounds  = 5000
	)
	p := NewPool[uint64](256, nil, nil)
	var loc dcas.Loc
	init, _ := p.New(0xABCD)
	p.Store(&loc, init)
	p.Release(init)

	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < rounds; i++ {
				n, ok := p.New(0xABCD)
				if !ok {
					runtime.Gosched()
					continue
				}
				p.Store(&loc, n)
				p.Release(n)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ref := p.Load(&loc)
				if ref == Nil {
					continue
				}
				if v := *p.Get(ref); v != 0xABCD {
					panic("read recycled/garbage object through counted ref")
				}
				p.Release(ref)
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	p.Store(&loc, Nil)
	if p.Live() != 0 {
		t.Fatalf("leak: %d objects live", p.Live())
	}
}

func TestStackSequential(t *testing.T) {
	s := NewStack(64, nil)
	if _, ok := s.Pop(); ok {
		t.Fatal("pop on empty succeeded")
	}
	for i := uint64(1); i <= 10; i++ {
		if !s.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if s.Live() != 10 {
		t.Fatalf("Live = %d", s.Live())
	}
	for i := uint64(10); i >= 1; i-- {
		v, ok := s.Pop()
		if !ok || v != i {
			t.Fatalf("pop = (%d, %v), want %d", v, ok, i)
		}
	}
	if s.Live() != 0 {
		t.Fatalf("leak: %d nodes live after drain", s.Live())
	}
}

func TestStackExhaustion(t *testing.T) {
	s := NewStack(4, nil)
	for i := 0; i < 4; i++ {
		if !s.Push(uint64(i + 1)) {
			t.Fatalf("push %d failed", i)
		}
	}
	if s.Push(99) {
		t.Fatal("push into exhausted pool succeeded")
	}
	s.Pop()
	if !s.Push(99) {
		t.Fatal("push after pop failed; node not reclaimed")
	}
}

// TestStackConcurrent hammers the stack and checks conservation plus
// complete reclamation — the end-to-end validation that LFRC frees every
// node exactly once.
func TestStackConcurrent(t *testing.T) {
	const (
		workers = 6
		perG    = 3000
	)
	s := NewStack(workers*perG+workers, new(dcas.GlobalLock))
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := make(map[uint64]int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make(map[uint64]int)
			for i := 0; i < perG; i++ {
				v := uint64(w*perG+i) + 1
				for !s.Push(v) {
					runtime.Gosched()
				}
				if i%2 == 1 {
					if got, ok := s.Pop(); ok {
						local[got]++
					}
				}
			}
			mu.Lock()
			for k, c := range local {
				seen[k] += c
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	for {
		v, ok := s.Pop()
		if !ok {
			break
		}
		seen[v]++
	}
	if len(seen) != workers*perG {
		t.Fatalf("distinct values: %d, want %d", len(seen), workers*perG)
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("value %d popped %d times", v, c)
		}
	}
	if s.Live() != 0 {
		t.Fatalf("leak: %d nodes live after drain", s.Live())
	}
}
