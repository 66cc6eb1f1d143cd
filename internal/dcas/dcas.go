// Package dcas provides the double-compare-and-swap (DCAS) primitive of
// Figure 1 of "DCAS-Based Concurrent Deques" (Agesen et al., SPAA 2000),
// together with the shared-memory location type the deque algorithms
// operate on.
//
// The paper assumes DCAS is executed atomically "either through hardware
// support, through a non-blocking software emulation, or via a blocking
// software emulation".  No shipping hardware provides DCAS, so this package
// supplies two blocking software emulations behind the Provider interface:
//
//   - GlobalLock: the general emulation and Default().  Every DCAS, and
//     every Provider.CAS, runs under one sync.Mutex per provider instance,
//     and each deque gets its own instance.  The list deques, the LFRC
//     deque, the LFRC pool and the Greenwald baseline run on it.
//   - EndLock: the anchored in-word emulation specialized to the array
//     deque's (end index, cell) pairs — three locked read-modify-writes
//     per DCAS and no lock at all outside the words themselves.  It is the
//     array deque's default, which inlines its fast path; it is not a
//     general provider (see the type).
//
// A Loc is one atomic word.  Reads are plain atomic loads and take no
// lock; every write after publication goes through a Provider (DCAS,
// DCASView or CAS), so writes to one location linearize with each other.
//
// Torn loads.  A plain Load is not ordered against the two stores of an
// in-flight DCAS X: a reader can see X's store to a1 but not yet its store
// to a2.  Under GlobalLock no other write lands inside that window, since
// every DCAS and CAS on the deque's words takes the mutex X holds from its
// validation to its last store.  A torn view therefore mixes exactly two
// states, the one before X and the one after, and a decision taken on it
// commits only through a later DCAS or CAS that re-validates its words
// once X has finished.  The list deque failure measured under an earlier
// per-location lock emulation (DESIGN.md §6) needed what this
// rules out: a DCAS on a pair disjoint from X's committing inside X's
// window.  That excludes the measured failure; it does not prove every
// torn view harmless.  The model checker steps a DCAS atomically, and the
// evidence for the emulation is the multi-core conservation tests.  The
// two ends of a deque proceed independently in the algorithm (operations
// on opposite ends touch disjoint words, which the model checker
// explores), not in this emulation, which serializes them.
//
// Both forms of Figure 1 are provided: DCAS (boolean result) and DCASView
// (returns an atomic view of the two locations whether or not the
// comparison succeeded), mirroring the value-argument and
// pointer-to-old-value-argument variants.
package dcas

import (
	"sync"
	"sync/atomic"
)

// Loc is a single shared-memory location holding one 64-bit word.  It is
// the unit on which Read, Write, CAS and DCAS operate.  The zero value is a
// valid location holding 0.
//
// Loc corresponds to a memory word L in the paper's machine model
// (Section 2): Read_i(L), Write_i(L, v) and DCAS_i(L1, L2, ...).
//
// Layout: a Loc is exactly its value word, 8 bytes — deliberately
// unpadded, because aggregates embed many of them (array cells, list
// nodes) and choose their own spacing; see PaddedLoc for the padded form.
type Loc struct {
	v atomic.Uint64
}

// AssignIDs is a no-op.  Locations once carried lock-ordering tokens that
// constructors registered eagerly; no provider orders locks by location
// any more, so there is nothing to assign.  It remains so that code
// written against the earlier API (perfbench/dcas.go) still builds.
func AssignIDs(...*Loc) {}

// Load atomically reads the location (Read_i(L) in the paper's model).
func (l *Loc) Load() uint64 { return l.v.Load() }

// Init writes the location.  It must only be used before the location is
// shared (e.g. while constructing a deque or initializing a freshly
// allocated node that no other thread can reach); once shared, a location
// is written only through a Provider.
func (l *Loc) Init(v uint64) { l.v.Store(v) }

// Provider supplies the two DCAS forms of Figure 1 and a single-word CAS
// that linearizes with them.  Implementations must guarantee that the
// comparison and both stores take effect atomically with respect to every
// other operation of the same Provider.
type Provider interface {
	// DCAS is the weak form of Figure 1: if *a1 == o1 and *a2 == o2, it
	// stores n1 and n2 and reports true; otherwise it changes nothing and
	// reports false.  a1 and a2 must be distinct locations.
	DCAS(a1, a2 *Loc, o1, o2, n1, n2 uint64) bool

	// DCASView is the strong form of Figure 1 (third and fourth arguments
	// passed as pointers in the paper): it behaves like DCAS but always
	// returns an atomic view (v1, v2) of the two locations taken at the
	// linearization point, whether the operation succeeded or failed.
	DCASView(a1, a2 *Loc, o1, o2, n1, n2 uint64) (v1, v2 uint64, ok bool)

	// CAS is the single-location compare-and-swap: if *a == old it stores
	// new and reports true.  It linearizes with the provider's DCAS on the
	// same location, which a raw atomic CAS would not under a lock-based
	// emulation.
	CAS(a *Loc, old, new uint64) bool
}

// GlobalLock is the general DCAS emulation: every DCAS, DCASView and CAS
// of one instance serializes on one sync.Mutex, so each operation's
// validation and stores are atomic with respect to every other operation
// of the instance.  Give each deque its own instance (Default returns a
// fresh one); deques sharing an instance serialize against each other.
// The critical section is two loads and at most two stores; the mutex's
// own spin phase covers the short waits, and it parks a waiter whose
// holder was preempted instead of spinning behind it.
//
// The zero value is ready to use.  A GlobalLock value must not be copied
// after first use.
type GlobalLock struct {
	mu sync.Mutex
}

// DCAS implements the weak form of Figure 1 under the provider's single mutex.
func (p *GlobalLock) DCAS(a1, a2 *Loc, o1, o2, n1, n2 uint64) bool {
	if a1 == a2 {
		panic("dcas: DCAS requires two distinct locations")
	}
	p.mu.Lock()
	ok := a1.v.Load() == o1 && a2.v.Load() == o2
	if ok {
		a1.v.Store(n1)
		a2.v.Store(n2)
	}
	p.mu.Unlock()
	return ok
}

// DCASView implements the strong form of Figure 1 under the provider's
// single mutex.
func (p *GlobalLock) DCASView(a1, a2 *Loc, o1, o2, n1, n2 uint64) (v1, v2 uint64, ok bool) {
	if a1 == a2 {
		panic("dcas: DCASView requires two distinct locations")
	}
	p.mu.Lock()
	v1 = a1.v.Load()
	v2 = a2.v.Load()
	ok = v1 == o1 && v2 == o2
	if ok {
		a1.v.Store(n1)
		a2.v.Store(n2)
	}
	p.mu.Unlock()
	return v1, v2, ok
}

// CAS implements the single-location compare-and-swap under the
// provider's single mutex, so it linearizes with the instance's DCAS.
func (p *GlobalLock) CAS(a *Loc, old, new uint64) bool {
	p.mu.Lock()
	ok := a.v.Load() == old
	if ok {
		a.v.Store(new)
	}
	p.mu.Unlock()
	return ok
}

// Default returns the general provider used when a list deque, LFRC
// deque, LFRC pool or baseline is constructed without an explicit choice:
// a fresh GlobalLock.  The array deque defaults to EndLock instead.
func Default() *GlobalLock { return new(GlobalLock) }

var _ Provider = (*GlobalLock)(nil)
