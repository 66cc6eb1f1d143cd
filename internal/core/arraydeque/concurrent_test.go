package arraydeque

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dcasdeque/internal/dcas"
	"dcasdeque/internal/spec"
)

// TestConservation runs pushers and poppers on both ends and checks
// conservation: every value pushed is popped exactly once or remains
// present at the end, and the representation invariant holds afterwards.
func TestConservation(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			const (
				n       = 16
				pushers = 4
				poppers = 4
				perG    = 3000
				total   = pushers * perG
			)
			d := mk(n)
			var push, pop sync.WaitGroup
			var done atomic.Bool
			popped := make([][]uint64, poppers)

			for g := 0; g < pushers; g++ {
				push.Add(1)
				go func(g int) {
					defer push.Done()
					for i := 0; i < perG; i++ {
						v := uint64(g*perG+i) + 1
						for {
							var r spec.Result
							if (g+i)%2 == 0 {
								r = d.PushRight(v)
							} else {
								r = d.PushLeft(v)
							}
							if r == spec.Okay {
								break
							}
							// Full: yield instead of monopolizing the CPU
							// while poppers drain the deque.
							runtime.Gosched()
						}
					}
				}(g)
			}
			for g := 0; g < poppers; g++ {
				pop.Add(1)
				go func(g int) {
					defer pop.Done()
					for {
						var v uint64
						var r spec.Result
						if g%2 == 0 {
							v, r = d.PopLeft()
						} else {
							v, r = d.PopRight()
						}
						if r == spec.Okay {
							popped[g] = append(popped[g], v)
						} else if done.Load() {
							return
						} else {
							// Empty: yield so pushers get the CPU.
							runtime.Gosched()
						}
					}
				}(g)
			}
			push.Wait()
			done.Store(true)
			pop.Wait()

			// Drain what is left single-threaded.
			var rest []uint64
			for {
				v, r := d.PopLeft()
				if r != spec.Okay {
					break
				}
				rest = append(rest, v)
			}
			checkInv(t, d)

			seen := make(map[uint64]int, total)
			for _, batch := range popped {
				for _, v := range batch {
					seen[v]++
				}
			}
			for _, v := range rest {
				seen[v]++
			}
			if len(seen) != total {
				t.Fatalf("distinct values out: %d, want %d", len(seen), total)
			}
			for v, c := range seen {
				if c != 1 {
					t.Fatalf("value %d popped %d times", v, c)
				}
				if v < 1 || v > total {
					t.Fatalf("alien value %d popped", v)
				}
			}
		})
	}
}

// TestBothEndsIndependent checks the paper's central concurrency claim: a
// left-end worker and a right-end worker operating on a deque that never
// approaches a boundary complete all operations with values staying on
// their own end (each end behaves as an independent stack).
func TestBothEndsIndependent(t *testing.T) {
	const (
		n    = 64
		seed = 8 // items preloaded in the middle to keep ends apart
		ops  = 50000
	)
	d := New(n)
	for i := 0; i < seed; i++ {
		d.PushRight(uint64(1000 + i)) // middle ballast, values 1000..1007
	}
	var wg sync.WaitGroup
	run := func(push func(uint64) spec.Result, pop func() (uint64, spec.Result), base uint64) {
		defer wg.Done()
		depth := 0
		next := base
		for i := 0; i < ops; i++ {
			if depth == 0 || i%3 != 0 {
				if push(next) == spec.Okay {
					depth++
					next++
				}
			} else {
				v, r := pop()
				if r != spec.Okay {
					panic("pop failed with items on this end")
				}
				if v < base || v >= base+uint64(ops) {
					panic("value crossed ends despite middle ballast")
				}
				depth--
			}
		}
		// Unwind this end completely; every value must be ours.
		for ; depth > 0; depth-- {
			v, r := pop()
			if r != spec.Okay || v < base || v >= base+uint64(ops) {
				panic("unwind popped foreign value")
			}
		}
	}
	wg.Add(2)
	go run(d.PushLeft, d.PopLeft, 1<<20)
	go run(d.PushRight, d.PopRight, 1<<30)
	wg.Wait()
	checkInv(t, d)
	items := mustItems(t, d)
	if len(items) != seed {
		t.Fatalf("ballast disturbed: %v", items)
	}
	for i, v := range items {
		if v != uint64(1000+i) {
			t.Fatalf("ballast order disturbed: %v", items)
		}
	}
}

// TestContendedSingleCell has every goroutine fight over a capacity-1
// deque, the maximal-contention boundary case: all four operation kinds
// target the same (index, cell) neighbourhood.
func TestContendedSingleCell(t *testing.T) {
	d := New(1, WithProvider(new(dcas.GlobalLock)))
	const (
		workers = 8
		rounds  = 5000
	)
	var pushedCount, poppedCount atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch w % 4 {
				case 0:
					if d.PushLeft(uint64(w*rounds+i)+1) == spec.Okay {
						pushedCount.Add(1)
					}
				case 1:
					if d.PushRight(uint64(w*rounds+i)+1) == spec.Okay {
						pushedCount.Add(1)
					}
				case 2:
					if _, r := d.PopLeft(); r == spec.Okay {
						poppedCount.Add(1)
					}
				case 3:
					if _, r := d.PopRight(); r == spec.Okay {
						poppedCount.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	checkInv(t, d)
	items := mustItems(t, d)
	if pushedCount.Load() != poppedCount.Load()+uint64(len(items)) {
		t.Fatalf("conservation: pushed %d, popped %d, remaining %d",
			pushedCount.Load(), poppedCount.Load(), len(items))
	}
}

// TestStealScenarioFig6 exercises the Figure 6 situation statistically: a
// deque holding one item is attacked by a popLeft and a popRight; exactly
// one must win the item and the other must report empty.
func TestStealScenarioFig6(t *testing.T) {
	for round := 0; round < 2000; round++ {
		d := New(4)
		d.PushRight(7)
		var vL, vR uint64
		var rL, rR spec.Result
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); vL, rL = d.PopLeft() }()
		go func() { defer wg.Done(); vR, rR = d.PopRight() }()
		wg.Wait()
		switch {
		case rL == spec.Okay && rR == spec.Empty:
			if vL != 7 {
				t.Fatalf("left won with value %d", vL)
			}
		case rR == spec.Okay && rL == spec.Empty:
			if vR != 7 {
				t.Fatalf("right won with value %d", vR)
			}
		default:
			t.Fatalf("round %d: results (%v, %v); exactly one pop must win", round, rL, rR)
		}
		checkInv(t, d)
		if items := mustItems(t, d); len(items) != 0 {
			t.Fatalf("item not removed: %v", items)
		}
	}
}
