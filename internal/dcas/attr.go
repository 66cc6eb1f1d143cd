package dcas

import (
	"sort"
	"sync/atomic"
	"unsafe"
)

// Per-location DCAS attribution.
//
// The aggregate Stats answer "how contended is this deque", but the
// paper's algorithms are asymmetric by construction: the array deque's
// left and right end words are deliberately far apart (Section 3), and a
// retry storm on one end says something different from uniform pressure
// across the cells.  AttrStats splits attempt/failure counts by the
// location words a DCAS touched, keyed by each Loc's address, so a report
// can say "94% of failures hit one location — the right end word".  An
// address is a stable identity for the location's lifetime: Go's
// collector does not move heap objects, and arena-recycled nodes keep
// their storage across incarnations.
//
// The table is a fixed-size, lock-free, insert-only open-addressed map:
// a slot is claimed by CASing its id from 0, and counters are plain
// atomic adds thereafter.  Locations beyond the table's capacity fold
// into a single overflow bucket — attribution degrades, it never blocks
// or allocates on the DCAS path.

// attrSlots is the attribution table size.  The interesting attribution
// targets are end words and a modest number of hot cells; 64 slots cover
// every deque in the test suite with room to spare.
const attrSlots = 64

// attrSlot is one location's counters.  Slots are written by whichever
// goroutine's DCAS touched the location, so they are deliberately small —
// the table is for post-run reports, not hot-loop reads.
type attrSlot struct {
	id       atomic.Uint64
	attempts atomic.Uint64
	failures atomic.Uint64
}

// AttrStats extends Stats with per-location attribution.  Use
// InstrumentedAttr to produce a provider that fills one in.  The zero
// value is ready to use.
type AttrStats struct {
	// Stats receives the aggregate counts, exactly as Instrumented
	// maintains them.
	Stats
	slots    [attrSlots]attrSlot
	overflow attrSlot
}

// locKey is a location's attribution key: its address, never 0.
func locKey(l *Loc) uint64 { return uint64(uintptr(unsafe.Pointer(l))) }

// slot returns the counter slot for a location key, claiming a free
// slot on first sight and folding into the overflow bucket when the
// table is full.
func (st *AttrStats) slot(id uint64) *attrSlot {
	h := (id * 0x9e3779b97f4a7c15) >> (64 - 6) // fibonacci hash into [0,64)
	for probe := uint64(0); probe < attrSlots; probe++ {
		s := &st.slots[(h+probe)&(attrSlots-1)]
		got := s.id.Load()
		if got == id {
			return s
		}
		if got == 0 && s.id.CompareAndSwap(0, id) {
			return s
		}
		if s.id.Load() == id { // lost the claim race to our own id
			return s
		}
	}
	return &st.overflow
}

// record counts one DCAS against both locations it touched.
func (st *AttrStats) record(a1, a2 *Loc, failed bool) {
	s1, s2 := st.slot(locKey(a1)), st.slot(locKey(a2))
	s1.attempts.Add(1)
	s2.attempts.Add(1)
	if failed {
		s1.failures.Add(1)
		s2.failures.Add(1)
	}
}

// LocStats is one location's attributed counts, in plain values.
type LocStats struct {
	// ID is the location's address; 0 identifies the overflow bucket.
	ID       uint64 `json:"id"`
	Attempts uint64 `json:"attempts"`
	Failures uint64 `json:"failures"`
}

// PerLocation returns the attributed counts, sorted by location address,
// with the overflow bucket (ID 0) appended when it is non-empty.  Reads
// are unsynchronized, with the same contract as Stats.Snapshot: a
// concurrent Reset can zero a slot's attempts between the two loads and
// leave its failures momentarily larger, so each slot's failures are
// clamped to its attempts — the same underflow guard Stats.Successes
// applies to the aggregate pair.
func (st *AttrStats) PerLocation() []LocStats {
	var out []LocStats
	for i := range st.slots {
		s := &st.slots[i]
		if id := s.id.Load(); id != 0 {
			out = append(out, clampLoc(id, s.attempts.Load(), s.failures.Load()))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	if a := st.overflow.attempts.Load(); a != 0 {
		out = append(out, clampLoc(0, a, st.overflow.failures.Load()))
	}
	return out
}

// clampLoc builds one LocStats with failures clamped to attempts.
func clampLoc(id, attempts, failures uint64) LocStats {
	if failures > attempts {
		failures = attempts
	}
	return LocStats{ID: id, Attempts: attempts, Failures: failures}
}

// Reset zeroes the aggregate counters and every attribution slot
// (claimed slots keep their location identity).
func (st *AttrStats) Reset() {
	st.Stats.Reset()
	for i := range st.slots {
		st.slots[i].attempts.Store(0)
		st.slots[i].failures.Store(0)
	}
	st.overflow.attempts.Store(0)
	st.overflow.failures.Store(0)
}

// InstrumentedAttr wraps a Provider so that every DCAS is counted in
// st's aggregate counters and attributed to both locations it touched.
// The wrapped provider is otherwise semantically identical; CAS passes
// through uncounted.
func InstrumentedAttr(p Provider, st *AttrStats) Provider {
	return &instrumentedAttr{p: p, st: st}
}

type instrumentedAttr struct {
	p  Provider
	st *AttrStats
}

func (i *instrumentedAttr) DCAS(a1, a2 *Loc, o1, o2, n1, n2 uint64) bool {
	i.st.Attempts.Add(1)
	ok := i.p.DCAS(a1, a2, o1, o2, n1, n2)
	if !ok {
		i.st.Failures.Add(1)
	}
	i.st.record(a1, a2, !ok)
	return ok
}

func (i *instrumentedAttr) DCASView(a1, a2 *Loc, o1, o2, n1, n2 uint64) (uint64, uint64, bool) {
	i.st.Attempts.Add(1)
	v1, v2, ok := i.p.DCASView(a1, a2, o1, o2, n1, n2)
	if !ok {
		i.st.Failures.Add(1)
	}
	i.st.record(a1, a2, !ok)
	return v1, v2, ok
}

func (i *instrumentedAttr) CAS(a *Loc, old, new uint64) bool { return i.p.CAS(a, old, new) }
