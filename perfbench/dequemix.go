package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"dcasdeque/deque"
)

// The deque workloads: two goroutines share one deque built with the
// default options and do a seeded random 50/50 push/pop mix on either
// end, closed loop.  deque-array runs the paper's array deque, deque-list
// its list deque.  No other layer is on the path, so these are the
// workloads where the DCAS provider's cost and the algorithms' own cost
// set the number.

type dequeKind int

const (
	arrayKind dequeKind = iota
	listKind
)

func (k dequeKind) String() string {
	if k == arrayKind {
		return "array"
	}
	return "list"
}

// dequeOps is the part of the deque API the workload calls.
type dequeOps interface {
	PushLeft(uint64) error
	PushRight(uint64) error
	PopLeft() (uint64, error)
	PopRight() (uint64, error)
	Stats() (deque.Stats, bool)
}

const (
	dequeWorkers  = 2
	scriptLen     = 1 << 16 // ops per worker script, replayed cyclically
	dequePrefill  = 4096
	dequeCapacity = 1 << 15
	dequeWarmOps  = 1 << 17 // per worker, part of set-up
	// A worker times each chunk of dequeChunk consecutive ops: one
	// latency sample per chunk, and two clock reads per chunk rather than
	// per op.  Traced runs also time the first op of every chunk alone.
	dequeChunk    = 128
	dequeSetups   = 5
	dequeInterval = 100 * time.Millisecond
)

const (
	opPushLeft uint8 = iota
	opPushRight
	opPopLeft
	opPopRight
)

var dequeOpNames = [...]string{"deque.PushLeft", "deque.PushRight", "deque.PopLeft", "deque.PopRight"}

// makeScript returns one worker's op sequence: exactly half pushes, in
// seeded random order, each on a seeded random end, together with the
// lowest and highest point of the deque size's walk through it.
// Because the script is balanced, replaying it cyclically keeps the
// walk inside [lo, hi] forever.
func makeScript(rng *rand.Rand) (ops []uint8, lo, hi int) {
	ops = make([]uint8, scriptLen)
	for i := range ops {
		push := i < scriptLen/2
		end := uint8(rng.IntN(2))
		if push {
			ops[i] = opPushLeft + end
		} else {
			ops[i] = opPopLeft + end
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	walk := 0
	for _, o := range ops {
		if o <= opPushRight {
			walk++
		} else {
			walk--
		}
		lo, hi = min(lo, walk), max(hi, walk)
	}
	return ops, lo, hi
}

// makeScripts draws scripts until the two workers' walks, however they
// interleave, can neither empty the prefilled deque nor fill it — so
// no operation on a correct deque returns ErrEmpty or ErrFull.
func makeScripts(seed uint64) [dequeWorkers][]uint8 {
	rng := rand.New(rand.NewPCG(seed, 0xdeadbeef))
	for {
		var s [dequeWorkers][]uint8
		lo, hi := dequePrefill, dequePrefill
		for w := range s {
			var l, h int
			s[w], l, h = makeScript(rng)
			lo, hi = lo+l, hi+h
		}
		if lo > 0 && hi < dequeCapacity {
			return s
		}
	}
}

// dequeState is one built deque and the fingerprints of what went in
// and what came out.
type dequeState struct {
	d      dequeOps
	cursor [dequeWorkers]int
	next   [dequeWorkers]uint64 // per-worker value counters
	pushed [dequeWorkers]multiset
	taken  [dequeWorkers]multiset
	prefix multiset
	fails  int64
}

func newDeque(kind dequeKind, telemetry bool) dequeOps {
	var opts []deque.Option
	if telemetry {
		opts = append(opts, deque.WithTelemetry())
	}
	if kind == arrayKind {
		return deque.NewArray[uint64](dequeCapacity, opts...)
	}
	return deque.NewList[uint64](opts...)
}

// setupDeque builds the deque, prefills it and runs the warm-up ops.
func setupDeque(kind dequeKind, scripts *[dequeWorkers][]uint8, telemetry bool) (*dequeState, error) {
	st := &dequeState{d: newDeque(kind, telemetry)}
	for i := 0; i < dequePrefill; i++ {
		v := uint64(dequeWorkers)<<56 | uint64(i)
		if err := st.d.PushRight(v); err != nil {
			return nil, fmt.Errorf("prefill push %d: %w", i, err)
		}
		st.prefix.add(v)
	}
	var wg sync.WaitGroup
	begin := make(chan struct{})
	for w := 0; w < dequeWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-begin
			st.runOps(w, scripts[w], dequeWarmOps, nil, nil, nil)
		}(w)
	}
	close(begin)
	wg.Wait()
	return st, nil
}

// dequeSampler receives one worker's timings.
type dequeSampler struct {
	chunkNs []uint32 // per chunk of dequeChunk ops
	opNs    []uint32 // traced: the first op of each chunk
	spans   *spanBuf // nil when untraced
}

// runOps runs n ops of worker w's script, or with n < 0 until stop is
// set, publishing its progress every chunk.  smp, when non-nil,
// receives the chunk timings.
func (st *dequeState) runOps(w int, script []uint8, n int, stop *atomic.Bool, progress *atomic.Int64, smp *dequeSampler) {
	d := st.d
	cur := st.cursor[w]
	next := st.next[w]
	pushed, taken := st.pushed[w], st.taken[w]
	var fails int64
	done := 0
	for n < 0 || done < n {
		var c0 int64
		if smp != nil {
			c0 = tracer.now()
		}
		for i := 0; i < dequeChunk; i++ {
			o := script[cur]
			cur = (cur + 1) & (scriptLen - 1)
			timed := i == 0 && smp != nil && smp.spans != nil
			var t0 int64
			if timed {
				t0 = tracer.now()
			}
			var err error
			var v uint64
			switch o {
			case opPushLeft, opPushRight:
				v = uint64(w)<<56 | next
				next++
				if o == opPushLeft {
					err = d.PushLeft(v)
				} else {
					err = d.PushRight(v)
				}
				if err == nil {
					pushed.add(v)
				}
			case opPopLeft:
				v, err = d.PopLeft()
				if err == nil {
					taken.add(v)
				}
			case opPopRight:
				v, err = d.PopRight()
				if err == nil {
					taken.add(v)
				}
			}
			if err != nil {
				fails++
			}
			if timed {
				t1 := tracer.now()
				smp.opNs = append(smp.opNs, uint32(min(t1-t0, 1<<32-1)))
				smp.spans.add(span{name: dequeOpNames[o], id: tracer.id(), req: uint64(w)<<56 | uint64(done), start: t0, end: t1})
			}
		}
		if smp != nil {
			smp.chunkNs = append(smp.chunkNs, uint32(min(tracer.now()-c0, 1<<32-1)))
		}
		done += dequeChunk
		if progress != nil {
			progress.Store(int64(done))
		}
		if stop != nil && stop.Load() {
			break
		}
	}
	st.cursor[w], st.next[w] = cur, next
	st.pushed[w], st.taken[w] = pushed, taken
	atomic.AddInt64(&st.fails, fails)
}

// drain empties the deque and checks every value pushed was popped or
// drained exactly once.
func (st *dequeState) drain(fault string) error {
	var pushed, taken multiset
	pushed.merge(st.prefix)
	for w := range st.pushed {
		pushed.merge(st.pushed[w])
		taken.merge(st.taken[w])
	}
	for {
		v, err := st.d.PopLeft()
		if errors.Is(err, deque.ErrEmpty) {
			break
		}
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		taken.add(v)
		if fault == "deque-duplicate" {
			taken.add(v)
			fault = ""
		}
	}
	return checkExactlyOnce(pushed, taken)
}

// dequePhase is one measured window.
type dequePhase struct {
	ops      int64
	elapsed  time.Duration
	rates    []float64 // ops/s per interval
	chunkNs  []uint32
	opNs     []uint32
	before   deque.Stats
	after    deque.Stats
	cpu      time.Duration
	hasStats bool
}

// measureDeque runs both workers for window and samples their progress
// every dequeInterval.
func measureDeque(st *dequeState, scripts *[dequeWorkers][]uint8, window time.Duration, traced bool) dequePhase {
	var ph dequePhase
	ph.before, ph.hasStats = st.d.Stats()
	var stop atomic.Bool
	var progress [dequeWorkers]struct {
		n atomic.Int64
		_ [56]byte
	}
	smps := make([]*dequeSampler, dequeWorkers)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	for w := 0; w < dequeWorkers; w++ {
		smps[w] = &dequeSampler{}
		if traced {
			smps[w].spans = tracer.buffer()
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st.runOps(w, scripts[w], -1, &stop, &progress[w].n, smps[w])
		}(w)
	}
	total := func() int64 {
		var n int64
		for w := range progress {
			n += progress[w].n.Load()
		}
		return n
	}
	last, lastT := int64(0), start
	for time.Since(start) < window {
		time.Sleep(dequeInterval)
		n, t := total(), time.Now()
		ph.rates = append(ph.rates, float64(n-last)/t.Sub(lastT).Seconds())
		last, lastT = n, t
	}
	stop.Store(true)
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	ph.ops = total()
	ph.after, _ = st.d.Stats()
	for _, s := range smps {
		ph.chunkNs = append(ph.chunkNs, s.chunkNs...)
		ph.opNs = append(ph.opNs, s.opNs...)
	}
	return ph
}

func runDeque(cfg runConfig, kind dequeKind) (*outcome, error) {
	scripts := makeScripts(cfg.seed)
	out := &outcome{config: map[string]any{
		"workers":    dequeWorkers,
		"prefill":    dequePrefill,
		"script_ops": scriptLen,
		"chunk_ops":  dequeChunk,
	}}
	if kind == arrayKind {
		out.config["capacity"] = dequeCapacity
		out.config["deque"] = resolved(deque.NewArray[uint64](1), map[string]string{
			"type": "", "dcas": "core.prov", "strong_dcas": "core.strongDCAS", "recheck_index": "core.recheckIndex",
		})
	} else {
		out.config["deque"] = resolved(deque.NewList[uint64](), map[string]string{
			"type": "", "core": "core", "dcas": "core.prov", "eager_delete": "core.eagerDelete",
		})
	}

	finish := func(st *dequeState, ph *dequePhase) {
		out.attempted += ph.ops
		out.failed += st.fails
		if st.fails > 0 {
			out.violate("%s deque: %d operations hit an empty or full deque that the script never empties or fills", kind, st.fails)
		}
		if err := st.drain(cfg.fault); err != nil {
			out.violate("%s deque: %v", kind, err)
		}
	}

	if !cfg.trace {
		// Each set-up's deque is measured for an equal share of the
		// window and the samples pooled, so no one instance's memory
		// placement sets the result.
		var ops, fails int64
		var rates []float64
		for k := 0; k < dequeSetups; k++ {
			t0 := time.Now()
			st, err := setupDeque(kind, &scripts, false)
			if err != nil {
				return nil, err
			}
			out.e2e.setup = append(out.e2e.setup, time.Since(t0))
			ph := measureDeque(st, &scripts, cfg.window()/dequeSetups, false)
			finish(st, &ph)
			ops += ph.ops
			fails += st.fails
			rates = append(rates, ph.rates...)
			for _, v := range ph.chunkNs {
				out.e2e.latencyUs = append(out.e2e.latencyUs, float64(v)/dequeChunk/1e3)
			}
		}
		out.e2e.opsPerSec = median(rates)
		out.e2e.goodput = ratio(float64(ops-fails), float64(ops))
		out.named = append(out.named,
			namedValue{kind.String() + "_mops", out.e2e.opsPerSec / 1e6, "Mops/s"},
			namedValue{"failed_ratio", 1 - out.e2e.goodput, "ratio"},
			namedValue{"latency_samples", float64(len(out.e2e.latencyUs)), "count"})
		return out, nil
	}

	half := cfg.window() / 2
	st, err := setupDeque(kind, &scripts, false)
	if err != nil {
		return nil, err
	}
	plain := measureDeque(st, &scripts, half, false)
	finish(st, &plain)
	if st, err = setupDeque(kind, &scripts, true); err != nil {
		return nil, err
	}
	traced := measureDeque(st, &scripts, half, true)
	finish(st, &traced)
	if !traced.hasStats {
		return nil, fmt.Errorf("deque built with WithTelemetry reports no stats")
	}

	plainRate, tracedRate := median(plain.rates), median(traced.rates)
	ops := float64(traced.ops)
	b, a := traced.before, traced.after
	attempts := float64(a.DCAS.Attempts - b.DCAS.Attempts)
	succ := float64(a.DCAS.Successes - b.DCAS.Successes)
	retries := float64(a.Left.Retries + a.Right.Retries - b.Left.Retries - b.Right.Retries)
	logical := float64(a.Left.LogicalDeletes + a.Right.LogicalDeletes - b.Left.LogicalDeletes - b.Right.LogicalDeletes)
	physical := float64(a.Left.PhysicalDeletes + a.Right.PhysicalDeletes - b.Left.PhysicalDeletes - b.Right.PhysicalDeletes)
	opNs := make([]float64, len(traced.opNs))
	for i, v := range traced.opNs {
		opNs[i] = float64(v)
	}
	dc := measureDCAS()
	dcasPerOp := ratio(attempts, ops)
	// Each worker spends dequeWorkers/rate seconds per op of its own.
	meanOpNs := ratio(dequeWorkers*1e9, plainRate)
	out.layers = map[string]float64{
		"deque.op_ns.p50":             percentileOr0(opNs, 0.50),
		"deque.op_ns.p99":             percentileOr0(opNs, 0.99),
		"deque.dcas_per_op":           dcasPerOp,
		"deque.dcas_success_ratio":    ratio(succ, attempts),
		"deque.retries_per_op":        ratio(retries, ops),
		"deque.physical_delete_ratio": ratio(physical, logical),
		"core.algo_ns":                meanOpNs - dcasPerOp*dc.uncontendedNs,
		"dcas.default.ns":             dc.uncontendedNs,
		"dcas.default.contended_ns":   dc.contendedNs,
		"process.cpu_ns_per_op":       ratio(float64(traced.cpu), ops),
		"process.cpu_util":            ratio(traced.cpu.Seconds(), traced.elapsed.Seconds()*float64(nproc())),
		"trace.overhead_share":        1 - ratio(tracedRate, plainRate),
	}
	out.notes = append(out.notes,
		fmt.Sprintf("untraced %.4g ops/s, traced %.4g ops/s; mean op %.1f ns = %.2f DCAS x %.1f ns + %.1f ns algorithm and wrapper",
			plainRate, tracedRate, meanOpNs, dcasPerOp, dc.uncontendedNs, out.layers["core.algo_ns"]),
		fmt.Sprintf("op samples %d", len(opNs)))
	return out, nil
}
