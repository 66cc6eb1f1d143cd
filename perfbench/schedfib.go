package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"dcasdeque/sched"
)

// The sched-fib workload: fork-join fib trees with empty leaves,
// submitted one at a time (closed loop) to sched.New() with its
// defaults.  A task's only work is to spawn its children, so owner
// deque ops, steals and park/wake make up the whole cost.

// fibSizes are the tree sizes, drawn in seeded order from blocks that
// hold each size once, so every seed runs the same mix.
var fibSizes = [...]int{16, 18, 20}

const (
	fibSeqLen   = 1 << 12
	fibWarmN    = 18
	fibWarmRuns = 4
	schedSetups = 5
)

func fibSequence(seed uint64) []int {
	rng := rand.New(rand.NewPCG(seed, 0xf1b))
	seq := make([]int, 0, fibSeqLen)
	for len(seq) < fibSeqLen {
		block := fibSizes
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		seq = append(seq, block[:]...)
	}
	return seq
}

// joinNode is an internal tree node waiting for its two children.  The
// last child to finish completes the node, and so on up to the root,
// whose completion closes done: a join that touches only the nodes
// on one path, never a counter shared by the whole tree.
type joinNode struct {
	parent  *joinNode
	pending atomic.Int32
	done    chan struct{} // root only
}

func complete(p *joinNode) {
	for p.pending.Add(-1) == 0 {
		if p.parent == nil {
			close(p.done)
			return
		}
		p = p.parent
	}
}

type workerSlot struct {
	tasks  uint64
	bodyNs int64
	spans  *spanBuf
	_      [40]byte
}

// fibRunner submits trees to one scheduler.  Each worker counts the
// tasks it ran in its own slot, which only it writes.
type fibRunner struct {
	s      *sched.Scheduler
	slots  []workerSlot
	traced bool
}

func newFibRunner(traced bool) *fibRunner {
	var opts []sched.Option
	if traced {
		opts = append(opts, sched.WithLatency())
	}
	s := sched.New(opts...)
	r := &fibRunner{s: s, slots: make([]workerSlot, s.NumWorkers()), traced: traced}
	if traced {
		for i := range r.slots {
			r.slots[i].spans = tracer.buffer()
		}
	}
	return r
}

func (r *fibRunner) task(n int, parent *joinNode, tree, treeSpan uint64) sched.Task {
	return func(w *sched.Worker) {
		slot := &r.slots[w.ID()]
		var t0 int64
		if r.traced {
			t0 = tracer.now()
		}
		slot.tasks++
		if n >= 2 {
			nd := &joinNode{parent: parent}
			nd.pending.Store(2)
			w.Spawn(r.task(n-1, nd, tree, treeSpan))
			w.Spawn(r.task(n-2, nd, tree, treeSpan))
		}
		if r.traced {
			// Timed before the join: a leaf's complete may close the
			// root, after which the tree's reader owns nothing of this
			// slot but bodyNs and spans, read only after Shutdown.
			t1 := tracer.now()
			slot.bodyNs += t1 - t0
			slot.spans.add(span{name: "sched.task", id: tracer.id(), parent: treeSpan, req: tree, start: t0, end: t1})
		}
		if n < 2 {
			complete(parent)
		}
	}
}

func (r *fibRunner) tasksRun() uint64 {
	var n uint64
	for i := range r.slots {
		n += r.slots[i].tasks
	}
	return n
}

type treeResult struct {
	makespan, submit time.Duration
	tasks            uint64
}

// runTree submits one fib(n) tree, waits for it, and returns its
// makespan and the tasks it ran.
func (r *fibRunner) runTree(n int, tree uint64) (treeResult, error) {
	before := r.tasksRun()
	root := &joinNode{done: make(chan struct{})}
	root.pending.Store(1)
	var treeSpan uint64
	if r.traced {
		treeSpan = tracer.id()
	}
	t0 := tracer.now()
	if err := r.s.Submit(r.task(n, root, tree, treeSpan)); err != nil {
		return treeResult{}, err
	}
	t1 := tracer.now()
	<-root.done
	t2 := tracer.now()
	if r.traced {
		tracer.addShared(span{name: "sched.tree", id: treeSpan, req: tree, start: t0, end: t2})
		tracer.addShared(span{name: "sched.Submit", id: tracer.id(), parent: treeSpan, req: tree, start: t0, end: t1})
	}
	return treeResult{makespan: time.Duration(t2 - t0), submit: time.Duration(t1 - t0), tasks: r.tasksRun() - before}, nil
}

func (r *fibRunner) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return r.s.Shutdown(ctx)
}

// fibPhase is one measured window.
type fibPhase struct {
	trees    []treeResult
	tasks    uint64
	elapsed  time.Duration
	cpu      time.Duration
	before   sched.Stats
	after    sched.Stats
	bodyNs   int64
	hasStats bool
}

func measureFib(r *fibRunner, seq []int, window time.Duration, fault string, out *outcome) (fibPhase, error) {
	var ph fibPhase
	ph.before, ph.hasStats = r.s.Stats()
	cpu0 := cpuTime()
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		n := seq[i%len(seq)]
		tr, err := r.runTree(n, uint64(i))
		if err != nil {
			return ph, err
		}
		if fault == "fib-count" {
			tr.tasks++
		}
		out.attempted++
		if err := checkFibTree(n, tr.tasks); err != nil {
			out.failed++
			out.violate("%v", err)
		}
		ph.trees = append(ph.trees, tr)
		ph.tasks += tr.tasks
	}
	ph.elapsed = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	if err := r.shutdown(); err != nil {
		return ph, err
	}
	ph.after, _ = r.s.Stats()
	for i := range r.slots {
		ph.bodyNs += r.slots[i].bodyNs
	}
	return ph, nil
}

// setupFib builds a scheduler and runs the warm-up trees.
func setupFib(traced bool) (*fibRunner, error) {
	r := newFibRunner(traced)
	for i := 0; i < fibWarmRuns; i++ {
		tr, err := r.runTree(fibWarmN, 0)
		if err != nil {
			return nil, err
		}
		if err := checkFibTree(fibWarmN, tr.tasks); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func schedConfig(s *sched.Scheduler) map[string]any {
	return resolved(s, map[string]string{
		"workers":           "cfg.workers",
		"worker_deque":      "workers.0.dq",
		"worker_dcas":       "workers.0.dq.core.prov",
		"injector":          "injector",
		"injector_dcas":     "injector.core.prov",
		"deque_capacity":    "cfg.dequeCap",
		"injector_capacity": "cfg.injectorCap",
		"steal_batch":       "cfg.stealBatch",
		"spin_rounds":       "cfg.spinRounds",
	})
}

func runSchedFib(cfg runConfig) (*outcome, error) {
	seq := fibSequence(cfg.seed)
	out := &outcome{config: map[string]any{"tree_sizes": fibSizes}}

	if !cfg.trace {
		// Each set-up's scheduler is measured for an equal share of the
		// window and the trees pooled.
		var tasks uint64
		var elapsed time.Duration
		for k := 0; k < schedSetups; k++ {
			t0 := time.Now()
			r, err := setupFib(false)
			if err != nil {
				return nil, err
			}
			out.e2e.setup = append(out.e2e.setup, time.Since(t0))
			out.config["sched"] = schedConfig(r.s)
			ph, err := measureFib(r, seq, cfg.window()/schedSetups, cfg.fault, out)
			if err != nil {
				return nil, err
			}
			tasks += ph.tasks
			elapsed += ph.elapsed
			for _, tr := range ph.trees {
				out.e2e.latencyUs = append(out.e2e.latencyUs, float64(tr.makespan)/1e3)
			}
		}
		out.e2e.opsPerSec = float64(tasks) / elapsed.Seconds()
		out.e2e.goodput = ratio(float64(out.attempted-out.failed), float64(out.attempted))
		out.named = append(out.named,
			namedValue{"fib_tasks_per_s", out.e2e.opsPerSec, "tasks/s"},
			namedValue{"failed_ratio", 1 - out.e2e.goodput, "ratio"},
			namedValue{"trees", float64(len(out.e2e.latencyUs)), "count"})
		return out, nil
	}

	half := cfg.window() / 2
	r, err := setupFib(false)
	if err != nil {
		return nil, err
	}
	out.config["sched"] = schedConfig(r.s)
	plain, err := measureFib(r, seq, half, cfg.fault, out)
	if err != nil {
		return nil, err
	}
	if r, err = setupFib(true); err != nil {
		return nil, err
	}
	traced, err := measureFib(r, seq, half, cfg.fault, out)
	if err != nil {
		return nil, err
	}
	if !traced.hasStats || traced.after.Latencies == nil {
		return nil, fmt.Errorf("scheduler built with WithLatency reports no stats")
	}
	b, a := traced.before.Total, traced.after.Total
	runs := float64(a.Runs - b.Runs)
	steals := float64(a.Steals - b.Steals)
	var maxRuns uint64
	for i := range traced.after.Workers {
		maxRuns = max(maxRuns, traced.after.Workers[i].Runs-traced.before.Workers[i].Runs)
	}
	var makespan time.Duration
	submits := make([]float64, 0, len(traced.trees))
	for _, tr := range traced.trees {
		makespan += tr.makespan
		submits = append(submits, float64(tr.submit))
	}
	parkSum := traced.after.Latencies.ParkWake.Sum
	if traced.before.Latencies != nil {
		parkSum -= traced.before.Latencies.ParkWake.Sum
	}
	workers := float64(r.s.NumWorkers())
	plainRate := float64(plain.tasks) / plain.elapsed.Seconds()
	tracedRate := float64(traced.tasks) / traced.elapsed.Seconds()
	dc := measureDCAS()
	out.layers = map[string]float64{
		"sched.submit_ns":           median(submits),
		"sched.overhead_share":      1 - ratio(float64(traced.bodyNs), float64(makespan)*workers),
		"sched.steals_per_ktask":    ratio(steals*1000, runs),
		"sched.steal_success_ratio": ratio(steals, steals+float64(a.StealFails-b.StealFails)),
		"sched.stolen_per_steal":    ratio(float64(a.Stolen-b.Stolen), steals),
		"sched.run_share_max":       ratio(float64(maxRuns), runs),
		"sched.parks_per_ktask":     ratio(float64(a.Parks-b.Parks)*1000, runs),
		"sched.park_ms_total":       float64(parkSum) / 1e6,
		"dcas.default.ns":           dc.uncontendedNs,
		"dcas.default.contended_ns": dc.contendedNs,
		"process.cpu_ns_per_op":     ratio(float64(traced.cpu), float64(traced.tasks)),
		"process.cpu_util":          ratio(traced.cpu.Seconds(), traced.elapsed.Seconds()*float64(nproc())),
		"trace.overhead_share":      1 - ratio(tracedRate, plainRate),
	}
	out.notes = append(out.notes,
		fmt.Sprintf("untraced %.4g tasks/s, traced %.4g tasks/s over %d traced trees; %.0f steals moved %d tasks in %.0f runs",
			plainRate, tracedRate, len(traced.trees), steals, a.Stolen-b.Stolen, runs))
	return out, nil
}
