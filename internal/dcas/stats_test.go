package dcas

import (
	"sync"
	"testing"
)

func TestStatsSnapshot(t *testing.T) {
	var s Stats
	s.Attempts.Add(10)
	s.Failures.Add(3)
	sn := s.Snapshot()
	want := Snapshot{Attempts: 10, Failures: 3, Successes: 7}
	if sn != want {
		t.Fatalf("Snapshot = %+v, want %+v", sn, want)
	}
}

// TestSuccessesClamped pins the underflow fix: when a Reset lands between
// the Attempts and Failures loads, Failures can exceed Attempts and the
// difference must clamp to zero, not wrap to ~2^64.
func TestSuccessesClamped(t *testing.T) {
	var s Stats
	// Reproduce the interleaving directly: the reader has loaded
	// Attempts=0 (post-Reset) while Failures still holds a pre-Reset
	// value — equivalent to Failures > Attempts at the instant of the
	// second load.
	s.Failures.Add(5)
	if got := s.Successes(); got != 0 {
		t.Fatalf("Successes with Failures > Attempts = %d, want 0", got)
	}
	sn := s.Snapshot()
	if sn.Successes != 0 {
		t.Fatalf("Snapshot.Successes with Failures > Attempts = %d, want 0", sn.Successes)
	}

	// And hammer the race for real: concurrent Resets while a reader
	// spins on Successes must never observe a wrapped value.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Attempts.Add(1)
				s.Failures.Add(1)
				s.Reset()
			}
		}
	}()
	for i := 0; i < 100000; i++ {
		if got := s.Successes(); got > 1<<32 {
			close(stop)
			wg.Wait()
			t.Fatalf("Successes wrapped: %d", got)
		}
	}
	close(stop)
	wg.Wait()
}

func TestAttrStats(t *testing.T) {
	var a, b Loc
	a.Init(1)
	b.Init(2)
	var st AttrStats
	p := InstrumentedAttr(&GlobalLock{}, &st)

	if !p.DCAS(&a, &b, 1, 2, 10, 20) {
		t.Fatal("matching DCAS failed")
	}
	if p.DCAS(&a, &b, 1, 2, 11, 21) {
		t.Fatal("stale DCAS succeeded")
	}
	if _, _, ok := p.DCASView(&a, &b, 10, 20, 100, 200); !ok {
		t.Fatal("matching DCASView failed")
	}

	if st.Attempts.Load() != 3 || st.Failures.Load() != 1 {
		t.Fatalf("aggregate = %d/%d, want 3/1", st.Attempts.Load(), st.Failures.Load())
	}
	per := st.PerLocation()
	if len(per) != 2 {
		t.Fatalf("PerLocation returned %d entries, want 2: %+v", len(per), per)
	}
	ids := map[uint64]LocStats{per[0].ID: per[0], per[1].ID: per[1]}
	for _, l := range []*Loc{&a, &b} {
		got, ok := ids[locKey(l)]
		if !ok {
			t.Fatalf("location %d missing from %+v", locKey(l), per)
		}
		if got.Attempts != 3 || got.Failures != 1 {
			t.Fatalf("location %d = %d/%d, want 3/1", locKey(l), got.Attempts, got.Failures)
		}
	}
	if per[0].ID >= per[1].ID {
		t.Fatalf("PerLocation not sorted by ID: %+v", per)
	}

	st.Reset()
	if st.Attempts.Load() != 0 {
		t.Fatal("aggregate survived Reset")
	}
	for _, l := range st.PerLocation() {
		if l.Attempts != 0 || l.Failures != 0 {
			t.Fatalf("attribution survived Reset: %+v", l)
		}
	}
}

// TestAttrStatsOverflow: more distinct locations than slots must fold
// into the overflow bucket without losing counts.
func TestAttrStatsOverflow(t *testing.T) {
	var st AttrStats
	p := InstrumentedAttr(&GlobalLock{}, &st)
	const locs = attrSlots + 16
	pairs := make([]Loc, 2*locs)
	total := uint64(0)
	for i := 0; i < locs; i++ {
		a, b := &pairs[2*i], &pairs[2*i+1]
		a.Init(1)
		b.Init(2)
		if !p.DCAS(a, b, 1, 2, 1, 2) {
			t.Fatal("DCAS failed")
		}
		total += 2 // each DCAS attributed to both locations
	}
	per := st.PerLocation()
	sum := uint64(0)
	sawOverflow := false
	for _, l := range per {
		sum += l.Attempts
		if l.ID == 0 {
			sawOverflow = true
			if l.Attempts == 0 {
				t.Fatal("empty overflow bucket reported")
			}
		}
	}
	if sum != total {
		t.Fatalf("attributed %d attempts, want %d", sum, total)
	}
	if !sawOverflow {
		t.Fatalf("%d locations through %d slots produced no overflow", 2*locs, attrSlots)
	}
}

// TestAttrStatsConcurrent: concurrent slot claiming must neither lose
// counts nor duplicate a location across slots.
func TestAttrStatsConcurrent(t *testing.T) {
	var a, b Loc
	a.Init(1)
	b.Init(1)
	var st AttrStats
	p := InstrumentedAttr(&GlobalLock{}, &st)
	const workers = 8
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p.DCAS(&a, &b, 0, 0, 0, 0) // always fails: values are 1
			}
		}()
	}
	wg.Wait()
	locs := st.PerLocation()
	if len(locs) != 2 {
		t.Fatalf("PerLocation = %+v, want 2 entries", locs)
	}
	for _, l := range locs {
		if l.Attempts != workers*per || l.Failures != workers*per {
			t.Fatalf("location %d = %d/%d, want %d/%d", l.ID, l.Attempts, l.Failures, workers*per, workers*per)
		}
	}
}

// PerLocation has the same Reset race as Stats.Successes: a concurrent
// Reset can zero a slot's attempts between the two loads, leaving its
// failures momentarily larger.  The per-location counters must clamp
// rather than report failures > attempts (regression: they used to be
// returned raw).
func TestPerLocationClampsResetRace(t *testing.T) {
	var st AttrStats

	// Model the mid-Reset state directly: attempts already zeroed,
	// failures not yet.
	s := st.slot(7)
	s.failures.Add(3)
	st.overflow.attempts.Add(2)
	st.overflow.failures.Add(5)

	locs := st.PerLocation()
	if len(locs) != 2 {
		t.Fatalf("PerLocation = %+v, want slot 7 and the overflow bucket", locs)
	}
	for _, l := range locs {
		if l.Failures > l.Attempts {
			t.Fatalf("location %d reports failures %d > attempts %d (unclamped)",
				l.ID, l.Failures, l.Attempts)
		}
	}
	if locs[0].ID != 7 || locs[0].Attempts != 0 || locs[0].Failures != 0 {
		t.Fatalf("slot 7 = %+v, want failures clamped to attempts = 0", locs[0])
	}
	if locs[1].ID != 0 || locs[1].Failures != 2 {
		t.Fatalf("overflow = %+v, want failures clamped to attempts = 2", locs[1])
	}

	// And under a live Reset storm no snapshot may ever underflow.
	var a, b Loc
	a.Init(1)
	b.Init(1)
	p := InstrumentedAttr(&GlobalLock{}, &st)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				p.DCAS(&a, &b, 0, 0, 0, 0) // always fails: values are 1
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				st.Reset()
			}
		}
	}()
	for i := 0; i < 5000; i++ {
		for _, l := range st.PerLocation() {
			if l.Failures > l.Attempts {
				close(done)
				wg.Wait()
				t.Fatalf("location %d: failures %d > attempts %d under Reset race",
					l.ID, l.Failures, l.Attempts)
			}
		}
	}
	close(done)
	wg.Wait()
}
