// Package telemetry is the observability core of the library: lock-free,
// sharded, per-deque operation counters attributed to the deque end they
// occurred on, plus a bounded flight recorder (flight.go) whose dumps the
// linearizability checker can replay (replay.go) and a stdlib-only
// Prometheus text exporter (registry.go, prometheus.go).
//
// The paper proves that every operation linearizes at exactly one DCAS
// (Section 5); at runtime that proof is invisible unless executions are
// observable.  Sundell–Tsigas's CAS-based deques and Shafiei's
// doubly-linked lists both characterize their algorithms by retry and
// amortized-step behaviour under contention — the quantities this package
// makes visible per end: a retry storm on the right end of one deque is
// distinguishable from healthy traffic on the left end of another.
//
// Design constraints, in order:
//
//   - Disabled must cost a nil check.  The deque cores carry a *Sink and
//     test it once per completed operation; all per-attempt tallies live
//     in operation-local variables until that single flush.
//   - Enabled must not create new contention.  Counters are sharded; a
//     recording goroutine picks a shard from its own stack address, so
//     concurrent recorders overwhelmingly hit different shards, and the
//     per-end counter blocks inside a shard are padded a full
//     false-sharing range apart (the //dequevet:contended discipline, so
//     padlayout vets the layout at compile time) — telemetry for the left
//     end must never invalidate the line the right end's counters occupy,
//     for exactly the reason the deque separates the ends themselves.
//
// Snapshots are sums over shards read without synchronization: totals are
// eventually exact (after quiescence) and monotone per counter, but a
// snapshot taken during operation may split an operation's counters — a
// push may be visible in Pushes before its Retries arrive.  This is the
// standard statistical-counter contract.
package telemetry

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"dcasdeque/internal/dcas"
)

// End identifies the deque end an event is attributed to.
type End uint8

// The two deque ends.
const (
	Left  End = 0
	Right End = 1
	// NumEnds sizes per-end tables.
	NumEnds = 2
)

// String returns the end's name.
func (e End) String() string {
	if e == Left {
		return "left"
	}
	return "right"
}

// Counter enumerates the per-end event counters.
type Counter uint8

// The per-end counters.  Pushes/Pops count operations that returned Okay;
// FullHits/EmptyHits count operations that observed the boundary, so a
// deque end's completed-operation total is the sum of all four.
const (
	// Pushes counts pushes that returned Okay on this end.
	Pushes Counter = iota
	// Pops counts pops that returned Okay on this end.
	Pops
	// FullHits counts pushes that observed the deque full at their
	// linearization point.
	FullHits
	// EmptyHits counts pops that observed the deque empty at their
	// linearization point.
	EmptyHits
	// Retries counts operation attempts that lost a race and looped — the
	// per-end DCAS retry number the contention literature reports.
	Retries
	// LogicalDeletes counts successful logical deletions (the list cores'
	// value-nulling DCAS; equal to Pops for those cores, recorded
	// separately so the two-phase deletion protocol is observable).
	LogicalDeletes
	// PhysicalDeletes counts nodes physically spliced out of the list on
	// this side (by this deque's deleteRight/deleteLeft passes).
	PhysicalDeletes
	// Grows counts storage growth events attributed to this end (the
	// Chase–Lev core's circular-array doublings, which happen on the
	// owner's push path).  Zero for the fixed-capacity cores.
	Grows
	// NumCounters sizes per-end counter blocks.
	NumCounters
)

// String returns the counter's exporter name.
func (c Counter) String() string {
	switch c {
	case Pushes:
		return "pushes"
	case Pops:
		return "pops"
	case FullHits:
		return "full_hits"
	case EmptyHits:
		return "empty_hits"
	case Retries:
		return "retries"
	case LogicalDeletes:
		return "logical_deletes"
	case PhysicalDeletes:
		return "physical_deletes"
	case Grows:
		return "grows"
	default:
		return "unknown"
	}
}

// endBlock is one end's counter bank, padded to a full false-sharing
// range so the two ends' banks in a shard can never share a line.
type endBlock struct {
	c [NumCounters]atomic.Uint64
	_ [dcas.FalseSharingRange - 8*int(NumCounters)]byte
}

// refBlock counts LFRC reference-count transfer events, which have no end
// attribution (a count transfer serves whichever operations reach the
// node).  Padded like endBlock.
type refBlock struct {
	incs  atomic.Uint64
	decs  atomic.Uint64
	frees atomic.Uint64
	_     [dcas.FalseSharingRange - 8*3]byte
}

// shard is one stripe of a Sink.  The three banks are declared contended:
// padlayout recomputes this struct's layout and rejects any edit that
// brings two banks within one false-sharing range of each other.
type shard struct {
	//dequevet:contended left-end counter bank, written by left-end operations
	left endBlock
	//dequevet:contended right-end counter bank, written by right-end operations
	right endBlock
	//dequevet:contended refcount-transfer bank, written by LFRC count transfers
	ref refBlock
}

// end selects a shard's bank for one end.
func (sh *shard) end(e End) *endBlock {
	if e == Left {
		return &sh.left
	}
	return &sh.right
}

// Sink accumulates one deque's telemetry.  All methods are safe for
// concurrent use; a nil *Sink is the disabled state and must be checked
// by the caller (the cores do) — methods on a nil Sink panic by design,
// so an unchecked call site fails loudly in tests.
type Sink struct {
	shards []shard
	mask   uint32
	lat    *latBank // nil unless EnableLatency was called (latency.go)
}

// sinkShards returns the shard count: enough stripes that GOMAXPROCS
// concurrent recorders rarely collide, without making snapshots scan an
// unbounded table.
func sinkShards(procs int) int {
	n := 1
	for n < procs && n < 16 {
		n <<= 1
	}
	return n
}

// NewSink returns an empty sink sized for the current schedule.
func NewSink() *Sink {
	n := sinkShards(runtime.GOMAXPROCS(0))
	return &Sink{shards: make([]shard, n), mask: uint32(n - 1)}
}

// shard picks the recording goroutine's stripe.  Goroutine stacks are
// distinct allocations, so the address of any stack variable is a cheap,
// stable-enough goroutine identifier; bits below 7 are dropped because
// they vary within one frame, not between goroutines.  A goroutine whose
// stack moves simply lands on another stripe — only distribution, never
// correctness, depends on the choice.
func (s *Sink) shard() *shard {
	var probe byte
	h := uintptr(unsafe.Pointer(&probe)) >> 7
	h ^= h >> 11 // fold higher stack-allocation entropy into the index bits
	return &s.shards[uint32(h)&s.mask]
}

// Op records one completed operation: outcome is Pushes, Pops, FullHits
// or EmptyHits, and retries is the number of attempts the operation lost
// before completing (0 for a first-try success).
//
// Kept out of line so the cores' per-return-site flush helpers (a nil
// check guarding this call) stay within the inlining budget: the
// disabled-telemetry contract is that every hot-path return site costs
// one inlined nil check, never a function call.
//
//go:noinline
func (s *Sink) Op(end End, outcome Counter, retries uint64) {
	b := s.shard().end(end)
	b.c[outcome].Add(1)
	if retries != 0 {
		b.c[Retries].Add(retries)
	}
}

// Add adds n to one per-end counter.
func (s *Sink) Add(end End, c Counter, n uint64) {
	if n != 0 {
		s.shard().end(end).c[c].Add(n)
	}
}

// RefInc records one LFRC reference-count increment.
func (s *Sink) RefInc() { s.shard().ref.incs.Add(1) }

// RefDec records one LFRC reference-count decrement.
func (s *Sink) RefDec() { s.shard().ref.decs.Add(1) }

// RefFree records one LFRC reclamation (a count reaching zero).
func (s *Sink) RefFree() { s.shard().ref.frees.Add(1) }

// OpCounts is one end's counter totals, in plain values.
type OpCounts struct {
	Pushes          uint64 `json:"pushes"`
	Pops            uint64 `json:"pops"`
	FullHits        uint64 `json:"full_hits"`
	EmptyHits       uint64 `json:"empty_hits"`
	Retries         uint64 `json:"retries"`
	LogicalDeletes  uint64 `json:"logical_deletes"`
	PhysicalDeletes uint64 `json:"physical_deletes"`
	Grows           uint64 `json:"grows"`
}

// Ops is the end's completed-operation total (every push and pop,
// including boundary responses — those complete too, per the
// specification).
func (o OpCounts) Ops() uint64 {
	return o.Pushes + o.Pops + o.FullHits + o.EmptyHits
}

// get returns the counter's value by enum, for table-driven exporters.
func (o OpCounts) get(c Counter) uint64 {
	switch c {
	case Pushes:
		return o.Pushes
	case Pops:
		return o.Pops
	case FullHits:
		return o.FullHits
	case EmptyHits:
		return o.EmptyHits
	case Retries:
		return o.Retries
	case LogicalDeletes:
		return o.LogicalDeletes
	case PhysicalDeletes:
		return o.PhysicalDeletes
	case Grows:
		return o.Grows
	default:
		return 0
	}
}

// RefCounts is the LFRC transfer totals, in plain values.
type RefCounts struct {
	Incs  uint64 `json:"incs"`
	Decs  uint64 `json:"decs"`
	Frees uint64 `json:"frees"`
}

// Snapshot is a point-in-time sum of a sink's counters.  See the package
// comment for the consistency contract.
type Snapshot struct {
	Left  OpCounts  `json:"left"`
	Right OpCounts  `json:"right"`
	Ref   RefCounts `json:"ref"`
	// Latency carries the duration histograms; nil unless the sink was
	// built with EnableLatency.
	Latency *LatencySnapshot `json:"latency,omitempty"`
}

// End selects a snapshot's counters for one end.
func (sn Snapshot) End(e End) OpCounts {
	if e == Left {
		return sn.Left
	}
	return sn.Right
}

// Snapshot sums all shards.
func (s *Sink) Snapshot() Snapshot {
	var sn Snapshot
	for i := range s.shards {
		sh := &s.shards[i]
		addBlock(&sn.Left, &sh.left)
		addBlock(&sn.Right, &sh.right)
		sn.Ref.Incs += sh.ref.incs.Load()
		sn.Ref.Decs += sh.ref.decs.Load()
		sn.Ref.Frees += sh.ref.frees.Load()
	}
	sn.Latency = s.latencySnapshot()
	return sn
}

func addBlock(dst *OpCounts, b *endBlock) {
	dst.Pushes += b.c[Pushes].Load()
	dst.Pops += b.c[Pops].Load()
	dst.FullHits += b.c[FullHits].Load()
	dst.EmptyHits += b.c[EmptyHits].Load()
	dst.Retries += b.c[Retries].Load()
	dst.LogicalDeletes += b.c[LogicalDeletes].Load()
	dst.PhysicalDeletes += b.c[PhysicalDeletes].Load()
	dst.Grows += b.c[Grows].Load()
}

// Reset zeroes every counter.  Like Snapshot, it is not atomic with
// respect to concurrent recording.
func (s *Sink) Reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		for c := Counter(0); c < NumCounters; c++ {
			sh.left.c[c].Store(0)
			sh.right.c[c].Store(0)
		}
		sh.ref.incs.Store(0)
		sh.ref.decs.Store(0)
		sh.ref.frees.Store(0)
	}
	if s.lat != nil {
		for e := range s.lat.op {
			s.lat.op[e].Reset()
			s.lat.spin[e].Reset()
		}
	}
}
