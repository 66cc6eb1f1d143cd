package dcas

import (
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
)

// providers returns one fresh instance of every Provider implementation,
// keyed by name, so each test runs against all emulations (experiment F1).
func providers() map[string]Provider {
	return map[string]Provider{
		"TwoLock":    new(TwoLock),
		"GlobalLock": new(GlobalLock),
	}
}

func TestLocZeroValue(t *testing.T) {
	var l Loc
	if got := l.Load(); got != 0 {
		t.Fatalf("zero Loc holds %d, want 0", got)
	}
	l.Store(42)
	if got := l.Load(); got != 42 {
		t.Fatalf("after Store(42): %d", got)
	}
	l.Init(7)
	if got := l.Load(); got != 7 {
		t.Fatalf("after Init(7): %d", got)
	}
}

func TestLocCAS(t *testing.T) {
	var l Loc
	l.Init(1)
	if !l.CAS(1, 2) {
		t.Fatal("CAS(1,2) on value 1 failed")
	}
	if l.CAS(1, 3) {
		t.Fatal("CAS(1,3) on value 2 succeeded")
	}
	if got := l.Load(); got != 2 {
		t.Fatalf("value %d, want 2", got)
	}
}

// TestDCASWeakSemantics checks the first form of Figure 1: success iff both
// comparisons hold; on success both stores happen; on failure neither does.
func TestDCASWeakSemantics(t *testing.T) {
	for name, p := range providers() {
		t.Run(name, func(t *testing.T) {
			var a, b Loc
			a.Init(10)
			b.Init(20)

			// Both match: succeeds, both written.
			if !p.DCAS(&a, &b, 10, 20, 11, 21) {
				t.Fatal("matching DCAS failed")
			}
			if a.Load() != 11 || b.Load() != 21 {
				t.Fatalf("after success: a=%d b=%d, want 11 21", a.Load(), b.Load())
			}

			// First mismatches: fails, nothing written.
			if p.DCAS(&a, &b, 99, 21, 0, 0) {
				t.Fatal("DCAS with first mismatch succeeded")
			}
			if a.Load() != 11 || b.Load() != 21 {
				t.Fatalf("after first-mismatch failure: a=%d b=%d", a.Load(), b.Load())
			}

			// Second mismatches: fails, nothing written.
			if p.DCAS(&a, &b, 11, 99, 0, 0) {
				t.Fatal("DCAS with second mismatch succeeded")
			}
			if a.Load() != 11 || b.Load() != 21 {
				t.Fatalf("after second-mismatch failure: a=%d b=%d", a.Load(), b.Load())
			}

			// Both mismatch: fails.
			if p.DCAS(&a, &b, 0, 0, 5, 5) {
				t.Fatal("DCAS with both mismatching succeeded")
			}
		})
	}
}

// TestDCASViewSemantics checks the second form of Figure 1: the returned
// pair is an atomic view of the two locations whether or not the operation
// succeeds, and the success rule matches the weak form.
func TestDCASViewSemantics(t *testing.T) {
	for name, p := range providers() {
		t.Run(name, func(t *testing.T) {
			var a, b Loc
			a.Init(1)
			b.Init(2)

			v1, v2, ok := p.DCASView(&a, &b, 1, 2, 3, 4)
			if !ok || v1 != 1 || v2 != 2 {
				t.Fatalf("success view: ok=%v v1=%d v2=%d, want true 1 2", ok, v1, v2)
			}
			if a.Load() != 3 || b.Load() != 4 {
				t.Fatalf("after success: a=%d b=%d, want 3 4", a.Load(), b.Load())
			}

			v1, v2, ok = p.DCASView(&a, &b, 1, 2, 9, 9)
			if ok {
				t.Fatal("stale DCASView succeeded")
			}
			if v1 != 3 || v2 != 4 {
				t.Fatalf("failure view: v1=%d v2=%d, want 3 4 (current values)", v1, v2)
			}
			if a.Load() != 3 || b.Load() != 4 {
				t.Fatalf("failed DCASView modified memory: a=%d b=%d", a.Load(), b.Load())
			}
		})
	}
}

// TestDCASSamePairPanics checks that passing the same location twice is
// rejected; the paper's algorithms never DCAS a location against itself.
func TestDCASSamePairPanics(t *testing.T) {
	for name, p := range providers() {
		t.Run(name, func(t *testing.T) {
			var a Loc
			for _, strong := range []bool{false, true} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("DCAS(strong=%v) with aliased locations did not panic", strong)
						}
					}()
					if strong {
						p.DCASView(&a, &a, 0, 0, 1, 1)
					} else {
						p.DCAS(&a, &a, 0, 0, 1, 1)
					}
				}()
			}
		})
	}
}

// TestDCASAtomicCounterPair drives many goroutines through DCAS-mediated
// transfers between two cells whose sum is invariant; any torn or
// non-atomic execution breaks the invariant.
func TestDCASAtomicCounterPair(t *testing.T) {
	for name, p := range providers() {
		t.Run(name, func(t *testing.T) {
			const (
				workers = 8
				moves   = 2000
				total   = 1 << 20
			)
			var a, b Loc
			a.Init(total)
			b.Init(0)

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
					for i := 0; i < moves; i++ {
						for {
							av, bv := a.Load(), b.Load()
							if av == 0 {
								break // nothing to move this round
							}
							amt := rng.Uint64()%av + 1
							if p.DCAS(&a, &b, av, bv, av-amt, bv+amt) {
								break
							}
						}
					}
				}(uint64(w + 1))
			}
			wg.Wait()
			if got := a.Load() + b.Load(); got != total {
				t.Fatalf("sum invariant violated: %d, want %d", got, total)
			}
		})
	}
}

// TestDCASDisjointPairsParallel checks that DCAS operations on disjoint
// location pairs do not interfere: n independent pairs are incremented
// concurrently and every pair must reach its exact target.
func TestDCASDisjointPairsParallel(t *testing.T) {
	for name, p := range providers() {
		t.Run(name, func(t *testing.T) {
			const (
				pairs = 4
				incs  = 5000
			)
			locs := make([]Loc, 2*pairs)
			var wg sync.WaitGroup
			for i := 0; i < pairs; i++ {
				wg.Add(1)
				go func(a, b *Loc) {
					defer wg.Done()
					for k := 0; k < incs; k++ {
						for {
							av, bv := a.Load(), b.Load()
							if p.DCAS(a, b, av, bv, av+1, bv+2) {
								break
							}
						}
					}
				}(&locs[2*i], &locs[2*i+1])
			}
			wg.Wait()
			for i := 0; i < pairs; i++ {
				if locs[2*i].Load() != incs || locs[2*i+1].Load() != 2*incs {
					t.Fatalf("pair %d: got (%d,%d), want (%d,%d)",
						i, locs[2*i].Load(), locs[2*i+1].Load(), incs, 2*incs)
				}
			}
		})
	}
}

// TestDCASOverlappingPairsContended stresses the deadlock-avoidance path:
// two goroutines repeatedly DCAS the same pair presented in opposite
// argument orders, which is exactly the pattern that deadlocks a naive
// two-mutex emulation.
func TestDCASOverlappingPairsContended(t *testing.T) {
	for name, p := range providers() {
		t.Run(name, func(t *testing.T) {
			const rounds = 20000
			var a, b Loc
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(flip bool) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						for {
							av, bv := a.Load(), b.Load()
							var ok bool
							if flip {
								ok = p.DCAS(&b, &a, bv, av, bv+1, av+1)
							} else {
								ok = p.DCAS(&a, &b, av, bv, av+1, bv+1)
							}
							if ok {
								break
							}
						}
					}
				}(w == 1)
			}
			wg.Wait()
			if a.Load() != 2*rounds || b.Load() != 2*rounds {
				t.Fatalf("got (%d,%d), want (%d,%d)", a.Load(), b.Load(), 2*rounds, 2*rounds)
			}
		})
	}
}

// TestDCASEquivalentForms property-checks that the weak form and the strong
// form make identical success decisions and identical memory updates for
// arbitrary inputs (Figure 1 presents them as two signatures of one
// operation).
func TestDCASEquivalentForms(t *testing.T) {
	for name, p := range providers() {
		t.Run(name, func(t *testing.T) {
			f := func(init1, init2, o1, o2, n1, n2 uint64) bool {
				var a1, b1, a2, b2 Loc
				a1.Init(init1)
				b1.Init(init2)
				a2.Init(init1)
				b2.Init(init2)

				okWeak := p.DCAS(&a1, &b1, o1, o2, n1, n2)
				v1, v2, okStrong := p.DCASView(&a2, &b2, o1, o2, n1, n2)

				if okWeak != okStrong {
					return false
				}
				if v1 != init1 || v2 != init2 {
					return false // view must be the pre-state here (no concurrency)
				}
				return a1.Load() == a2.Load() && b1.Load() == b2.Load()
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestInstrumentedCounts(t *testing.T) {
	var st Stats
	p := Instrumented(new(TwoLock), &st)
	var a, b Loc
	a.Init(1)
	b.Init(2)

	p.DCAS(&a, &b, 1, 2, 3, 4)     // success
	p.DCAS(&a, &b, 1, 2, 0, 0)     // failure
	p.DCASView(&a, &b, 3, 4, 5, 6) // success
	p.DCASView(&a, &b, 0, 0, 9, 9) // failure

	if st.Attempts.Load() != 4 {
		t.Fatalf("attempts = %d, want 4", st.Attempts.Load())
	}
	if st.Failures.Load() != 2 {
		t.Fatalf("failures = %d, want 2", st.Failures.Load())
	}
	if st.Successes() != 2 {
		t.Fatalf("successes = %d, want 2", st.Successes())
	}
	st.Reset()
	if st.Attempts.Load() != 0 || st.Failures.Load() != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

// TestStoreLinearizesWithDCAS checks that Loc.Store acquires the location
// lock: a storm of Stores racing with DCAS transfers must never let a DCAS
// half-apply around the store.
func TestStoreLinearizesWithDCAS(t *testing.T) {
	p := new(TwoLock)
	var a, b Loc
	a.Init(0)
	b.Init(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Keep a ≡ b invariant via DCAS.
			av, bv := a.Load(), b.Load()
			if av == bv {
				p.DCAS(&a, &b, av, bv, av+1, bv+1)
			}
		}
	}()
	for i := 0; i < 5000; i++ {
		av := a.Load()
		_ = av
	}
	close(stop)
	wg.Wait()
	if a.Load() != b.Load() {
		t.Fatalf("invariant a==b broken: a=%d b=%d", a.Load(), b.Load())
	}
}
