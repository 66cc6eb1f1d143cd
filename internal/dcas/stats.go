package dcas

import "sync/atomic"

// Stats accumulates DCAS operation counts.  The paper assumes DCAS is the
// most expensive primitive ("DCAS is a relatively expensive operation ...
// longer latency than traditional CAS, which in turn has longer latency
// than either a read or a write", Section 2), so benchmark experiments
// count DCAS attempts and failures to report retry behaviour alongside
// throughput.
//
// All counters are updated atomically; a Stats value may be shared by any
// number of goroutines.  The zero value is ready to use.
type Stats struct {
	// Attempts counts every DCAS/DCASView invocation.
	Attempts atomic.Uint64
	// Failures counts invocations whose comparison failed.
	Failures atomic.Uint64
}

// Successes reports Attempts minus Failures at the instant of the call.
// The two counters are read separately, so a concurrent Reset can land
// between the loads and leave Failures momentarily larger than Attempts;
// the difference is clamped to zero rather than wrapping to ~2^64.
func (s *Stats) Successes() uint64 {
	a, f := s.Attempts.Load(), s.Failures.Load()
	if f > a {
		return 0
	}
	return a - f
}

// Snapshot is a plain-value copy of a Stats, for exporters and reports
// that want to read the counters once and hand them around without
// carrying atomics.
//
// The counters are loaded one by one with no synchronization between
// them, so a snapshot taken while operations (or a Reset) are in flight
// may be mutually inconsistent — e.g. a failure counted whose attempt is
// not yet visible.  Successes is computed from the snapshot's own
// Attempts/Failures pair with the same clamping as Stats.Successes.
type Snapshot struct {
	Attempts  uint64 `json:"attempts"`
	Failures  uint64 `json:"failures"`
	Successes uint64 `json:"successes"`
}

// Snapshot reads all counters into plain values.  See Snapshot's
// documentation for the consistency contract.
func (s *Stats) Snapshot() Snapshot {
	sn := Snapshot{
		Attempts: s.Attempts.Load(),
		Failures: s.Failures.Load(),
	}
	if sn.Failures <= sn.Attempts {
		sn.Successes = sn.Attempts - sn.Failures
	}
	return sn
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.Attempts.Store(0)
	s.Failures.Store(0)
}

// Instrumented wraps a Provider so that every DCAS is counted in st.
// The wrapped provider is otherwise semantically identical; CAS passes
// through uncounted.
func Instrumented(p Provider, st *Stats) Provider {
	return &instrumented{p: p, st: st}
}

type instrumented struct {
	p  Provider
	st *Stats
}

func (i *instrumented) DCAS(a1, a2 *Loc, o1, o2, n1, n2 uint64) bool {
	i.st.Attempts.Add(1)
	ok := i.p.DCAS(a1, a2, o1, o2, n1, n2)
	if !ok {
		i.st.Failures.Add(1)
	}
	return ok
}

func (i *instrumented) DCASView(a1, a2 *Loc, o1, o2, n1, n2 uint64) (uint64, uint64, bool) {
	i.st.Attempts.Add(1)
	v1, v2, ok := i.p.DCASView(a1, a2, o1, o2, n1, n2)
	if !ok {
		i.st.Failures.Add(1)
	}
	return v1, v2, ok
}

func (i *instrumented) CAS(a *Loc, old, new uint64) bool { return i.p.CAS(a, old, new) }
