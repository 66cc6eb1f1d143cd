package metrics

// The concurrent half of the measurement toolkit: a cache-line-sharded
// log-linear histogram for hot-path latency recording, and the monotonic
// clock the recorders stamp with.
//
// The plain Histogram above is single-writer by design (each bench
// worker owns one and merges afterwards); the telemetry layer needs the
// opposite contract — any goroutine may record at any time — without
// introducing a contended cache line on the deque hot path.  The
// ShardedHistogram applies the telemetry Sink's sharding discipline to
// the histogram: per-shard atomic bucket counts (same log-linear
// geometry, so shards merge exactly), shards padded apart, and a
// recorder that picks its stripe either from its own stack address
// (Record) or from a caller-supplied lane such as a scheduler worker
// index (RecordAt, which makes the shard single-writer and the
// recording add uncontended).
//
// Snapshots are merge-on-read sums over shards read without
// synchronization: eventually exact, monotone per bucket, but a
// snapshot taken mid-record may split an observation (its bucket count
// visible before its sum) — the telemetry package's standard
// statistical-counter contract.

import (
	"sync/atomic"
	"time"
	"unsafe"
)

// procStart anchors Nanotime.  time.Since reads only the monotonic
// clock, so the subtraction is immune to wall-clock steps.
var procStart = time.Now()

// Nanotime returns monotonic nanoseconds since process start: the
// timestamp the latency recorders use.  One call costs one
// runtime.nanotime read (~20–30ns) — cheap enough for opt-in latency
// stamping, deliberately not free, which is why the disabled path never
// calls it.
func Nanotime() int64 { return int64(time.Since(procStart)) }

// histPad is the false-sharing range shards are kept apart by, matching
// dcas.FalseSharingRange without importing the package.
const histPad = 128

// histShard is one stripe: the full bucket array plus its own
// n/sum/min/max words, padded so adjacent shards never share a line.
// The bucket array itself is histPad-aligned in size (64·8·8 bytes), so
// only the trailing scalar words need the explicit pad.
type histShard struct {
	counts [64 * subBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
	min    atomic.Uint64 // ^uint64(0) while the shard is empty
	_      [histPad - 4*8]byte
}

// ShardedHistogram is a concurrent log-linear histogram with the exact
// bucket geometry of Histogram (1ns–~35s, ≤12.5% relative error).
// Create with NewShardedHistogram; all methods are safe for concurrent
// use.
type ShardedHistogram struct {
	shards []histShard
	mask   uint32
}

// NewShardedHistogram returns an empty histogram with at least the
// given number of stripes (rounded up to a power of two, clamped to
// [1, 64]).  Size to the expected recorder population: GOMAXPROCS for
// stack-address sharding, the worker count for lane sharding.  Each
// stripe costs ~4.2KB — the price of a hot path with no shared line.
func NewShardedHistogram(shards int) *ShardedHistogram {
	n := 1
	for n < shards && n < 64 {
		n <<= 1
	}
	h := &ShardedHistogram{shards: make([]histShard, n), mask: uint32(n - 1)}
	for i := range h.shards {
		h.shards[i].min.Store(^uint64(0))
	}
	return h
}

// Record adds one observation, picking the stripe from the caller's
// stack address (the telemetry Sink's goroutine-identity trick: stacks
// are distinct allocations, so concurrent recorders overwhelmingly land
// on different stripes).
func (h *ShardedHistogram) Record(v uint64) {
	var probe byte
	p := uintptr(unsafe.Pointer(&probe)) >> 7
	p ^= p >> 11 // fold higher stack-allocation entropy into the index bits
	h.shards[uint32(p)&h.mask].record(v)
}

// RecordAt adds one observation to the stripe for a caller-chosen lane
// (a scheduler worker index: the lane's sole user makes the stripe
// single-writer and the adds uncontended).  Negative lanes — events
// raised outside any worker — share lane 0.
func (h *ShardedHistogram) RecordAt(lane int, v uint64) {
	if lane < 0 {
		lane = 0
	}
	h.shards[uint32(lane)&h.mask].record(v)
}

func (sh *histShard) record(v uint64) {
	sh.counts[bucketOf(v)].Add(1)
	sh.n.Add(1)
	sh.sum.Add(v)
	for {
		m := sh.max.Load()
		if v <= m || sh.max.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := sh.min.Load()
		if v >= m || sh.min.CompareAndSwap(m, v) {
			break
		}
	}
}

// Merge folds every stripe into one plain Histogram — the merge-on-read
// snapshot the exporters quantile over.  The bucket geometries are
// identical, so the fold is exact per bucket.
func (h *ShardedHistogram) Merge() *Histogram {
	out := new(Histogram)
	for i := range h.shards {
		sh := &h.shards[i]
		n := sh.n.Load()
		if n == 0 {
			continue
		}
		for b := range sh.counts {
			out.counts[b] += sh.counts[b].Load()
		}
		if mn := sh.min.Load(); out.n == 0 || mn < out.min {
			out.min = mn
		}
		if mx := sh.max.Load(); mx > out.max {
			out.max = mx
		}
		out.n += n
		out.sum += sh.sum.Load()
	}
	return out
}

// Snapshot merges the stripes and summarizes (see Histogram.Snapshot).
func (h *ShardedHistogram) Snapshot() HistogramSnapshot { return h.Merge().Snapshot() }

// N reports the total observation count across stripes.
func (h *ShardedHistogram) N() uint64 {
	var n uint64
	for i := range h.shards {
		n += h.shards[i].n.Load()
	}
	return n
}

// Reset clears every stripe.  Like Snapshot, it is not atomic with
// respect to concurrent recording.
func (h *ShardedHistogram) Reset() {
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			sh.counts[b].Store(0)
		}
		sh.n.Store(0)
		sh.sum.Store(0)
		sh.max.Store(0)
		sh.min.Store(^uint64(0))
	}
}

// Bucket is one non-empty histogram bucket for exposition: Count
// observations with values in [Low, High).
type Bucket struct {
	Low   uint64 `json:"low"`
	High  uint64 `json:"high"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time summary of a histogram, the
// shape the Prometheus exposition and the JSON reports render from.
// Values are nanoseconds; quantiles are the bucket upper bounds
// Quantile reports.  Buckets carries the non-empty buckets for
// full-distribution exposition and is excluded from JSON (the summary
// quantiles are the JSON contract; Prometheus renders the buckets).
type HistogramSnapshot struct {
	N       uint64   `json:"n"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	P50     uint64   `json:"p50"`
	P90     uint64   `json:"p90"`
	P99     uint64   `json:"p99"`
	P999    uint64   `json:"p999"`
	Buckets []Bucket `json:"-"`
}

// Mean reports the mean observation, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.N)
}

// Snapshot summarizes the histogram: totals, extremes, the standard
// quantiles, and the non-empty buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	sn := HistogramSnapshot{
		N: h.n, Sum: h.sum, Min: h.min, Max: h.max,
		P50:  h.Quantile(0.50),
		P90:  h.Quantile(0.90),
		P99:  h.Quantile(0.99),
		P999: h.Quantile(0.999),
	}
	if h.n == 0 {
		return sn
	}
	for b, c := range h.counts {
		if c != 0 {
			sn.Buckets = append(sn.Buckets, Bucket{Low: bucketLow(b), High: bucketLow(b + 1), Count: c})
		}
	}
	return sn
}
