package sched

import (
	"math/rand/v2"
	"runtime"
	"sync/atomic"

	"dcasdeque/deque"
	"dcasdeque/internal/telemetry"
)

// creditBatch is how many pending units a worker takes from the life
// word in one refill, and (doubled) the credit it may hold before it
// returns the surplus.  Within a subtree a worker spawns about as many
// tasks as it finishes, so the credit mostly circulates locally and the
// shared word sees one RMW per creditBatch of imbalance, not two per task.
const creditBatch = 64

// Worker is one scheduler worker: a goroutine, its deque, and its
// parking channel.  Tasks receive their executing Worker and may call
// Spawn on it; no other methods are for task use.
type Worker struct {
	s    *Scheduler
	id   int
	dq   deque.Deque[Task]
	rng  *rand.Rand
	wake chan struct{}
	// credit is this worker's stock of pending units on the life word
	// that no task holds yet (the invariant is on Scheduler): Spawn
	// spends one, a finished task returns one.  Only the goroutine
	// running this worker touches it, so it is a plain field.
	credit uint64
}

func newWorker(s *Scheduler, id int, dq deque.Deque[Task]) *Worker {
	return &Worker{
		s:  s,
		id: id,
		dq: dq,
		// Deterministic per-worker streams: the steal experiments must be
		// reproducible run to run.
		rng: rand.New(rand.NewPCG(uint64(id), 0xdeca5)),
		// Capacity 1 carries the one wake token a worker can have
		// outstanding: a worker is on the idle stack at most once, every
		// send is preceded by popping it, and it consumes the token before
		// it can park again — so the send never blocks.
		wake: make(chan struct{}, 1),
	}
}

// ID reports the worker's index, in [0, NumWorkers).
func (w *Worker) ID() int { return w.id }

// size is this worker's published load estimate.
func (w *Worker) size() *atomic.Int64 { return &w.s.sizes[w.id].v }

// Spawn schedules a subtask from a running task: push to the owner's
// right end (LIFO), overflowing to the injector and finally to inline
// execution — a spawned task is never dropped.  Spawn must be called
// from the goroutine running the task that received w, never from a
// goroutine the task started: the worker's credit and its deque's owner
// end are both single-owner.  The new task's pending unit comes out of
// the worker's credit, refilled from the life word when empty; the
// running parent's own unit keeps the word above quiescence meanwhile,
// so Spawn needs no drain check: work spawned during a drain is part of
// the drain.
func (w *Worker) Spawn(t Task) {
	if t == nil {
		panic("sched: nil task")
	}
	s := w.s
	if w.credit == 0 {
		s.life.Add(creditBatch)
		w.credit = creditBatch
	}
	w.credit--
	s.note(w.id, telemetry.SchedSpawns)
	t = s.stamp(t, telemetry.SchedSubmitRun)
	if err := w.dq.PushRight(t); err == nil {
		w.size().Add(1) //dequevet:publish recheck=wakeOne advertise before a parker can miss the size
		s.wakeOne(w.id)
		return
	}
	if err := s.injector.PushRight(t); err == nil {
		s.injSize.Add(1) //dequevet:publish recheck=wakeOne
		s.wakeOne(w.id)
		return
	}
	w.runTask(t) // everything full: run inline, the standard overflow response
}

// runTask executes one task and returns its pending unit to the
// worker's credit.  Credit above 2×creditBatch goes back to the life
// word down to creditBatch; that return can never land the word on
// drainBit, since the credit kept is still counted in it.
func (w *Worker) runTask(t Task) {
	w.s.note(w.id, telemetry.SchedRuns)
	t(w)
	if w.credit++; w.credit > 2*creditBatch {
		w.s.life.Add(-(w.credit - creditBatch))
		w.credit = creditBatch
	}
}

// loop is the worker lifecycle: run work while it lasts, then
// spin → yield → park, and exit at quiescence.
func (w *Worker) loop() {
	defer w.s.wg.Done()
	spin := w.s.cfg.spinRounds
	misses := 0
	for {
		if t, ok := w.next(); ok {
			misses = 0
			w.runTask(t)
			continue
		}
		// Flush the credit before the quiescence check: held credit keeps
		// the word off drainBit, and a worker that parks must hold none.
		// If the flush lands the word on drainBit, the check below sees it
		// and this worker announces quiescence.
		if w.credit != 0 {
			w.s.life.Add(-w.credit)
			w.credit = 0
		}
		if w.s.quiesced() {
			w.s.wakeAll() // chain the announcement to still-parked workers
			return
		}
		misses++
		switch {
		case misses <= spin:
			// Hot retry: next() already swept every victim, so a miss this
			// early is usually a race about to resolve.
		case misses <= 2*spin:
			runtime.Gosched()
		default:
			w.park()
			misses = 0
		}
	}
}

// next finds one task: own deque first (right end, LIFO), then the
// shared injector, then stealing.
func (w *Worker) next() (Task, bool) {
	if t, err := w.dq.PopRight(); err == nil {
		w.size().Add(-1)
		return t, true
	}
	if t, ok := w.fromInjector(); ok {
		return t, true
	}
	return w.steal()
}

// fromInjector takes a batch of external submissions (left end: the
// injector is FIFO), keeps the first and queues the rest locally.  If
// submissions remain it wakes another worker — the standard wake
// propagation that turns one submit-side wakeup into as many workers
// as the backlog deserves.
func (w *Worker) fromInjector() (Task, bool) {
	got := w.s.injector.PopLMany(w.s.cfg.stealBatch)
	if len(got) == 0 {
		return nil, false
	}
	w.s.injSize.Add(-int64(len(got)))
	w.keep(got[1:])
	if w.s.injSize.Load() > 0 {
		w.s.wakeOne(w.id)
	}
	return got[0], true
}

// keep queues surplus tasks (from a batch steal or injector drain) on
// the worker's own deque, overflowing like Spawn but without touching
// the life word — these tasks are already pending.  Locally queued
// surplus is advertised with one wake: a parked worker whose only way
// to this work is stealing it back must hear that it exists (the wake
// then propagates — each woken thief keeps and advertises its own
// surplus in turn, fanning one wakeup out across the backlog).
func (w *Worker) keep(ts []Task) {
	queued := false
	for _, t := range ts {
		if err := w.dq.PushRight(t); err == nil {
			w.size().Add(1) //dequevet:publish recheck=wakeOne the trailing wake advertises the batch
			queued = true
			continue
		}
		if err := w.s.injector.PushRight(t); err == nil {
			w.s.injSize.Add(1) //dequevet:publish recheck=wakeOne
			w.s.wakeOne(w.id)
			continue
		}
		w.runTask(t)
	}
	if queued {
		w.s.wakeOne(w.id)
	}
}

// steal sweeps the other workers for work: two-choice victim selection
// (sample two, rob the one that looks more loaded — the power of two
// choices applied to victim selection), taking half the victim's
// apparent load in one left-end batch, up to the steal cap.
func (w *Worker) steal() (Task, bool) {
	s := w.s
	n := len(s.workers)
	if n == 1 {
		return nil, false
	}
	if reg := s.region("sched.steal"); reg != nil {
		defer reg.End()
	}
	// 2n samples ≈ every victim twice in expectation: enough that an
	// empty-handed return means the system really did look idle.
	for attempt := 0; attempt < 2*n; attempt++ {
		v := w.victim()
		if v2 := w.victim(); s.sizes[v2].v.Load() > s.sizes[v].v.Load() {
			v = v2
		}
		got := s.workers[v].dq.PopLMany(w.batchFor(v))
		if len(got) == 0 {
			continue
		}
		s.sizes[v].v.Add(-int64(len(got)))
		s.note(w.id, telemetry.SchedSteals)
		s.noteN(w.id, telemetry.SchedStolen, uint64(len(got)))
		s.stampBatch(got, telemetry.SchedStealRun)
		w.keep(got[1:])
		return got[0], true
	}
	s.note(w.id, telemetry.SchedStealFails)
	return nil, false
}

// victim picks a uniformly random worker other than this one.
func (w *Worker) victim() int {
	v := w.rng.IntN(len(w.s.workers) - 1)
	if v >= w.id {
		v++
	}
	return v
}

// batchFor sizes a steal at half the victim's apparent load, clamped
// to [1, stealBatch].
func (w *Worker) batchFor(v int) int {
	k := int(w.s.sizes[v].v.Load() / 2)
	if k < 1 {
		k = 1
	}
	if max := w.s.cfg.stealBatch; k > max {
		k = max
	}
	return k
}

// park publishes this worker on the idle stack, re-checks for work or
// quiescence (the Dekker recheck — without it a work publication that
// raced our stack push could strand us), and blocks for a wake token.
func (w *Worker) park() {
	s := w.s
	s.idle.push(w.id) //dequevet:publish recheck=workAvailable,quiesced the Dekker recheck below
	if s.workAvailable() || s.quiesced() {
		// Resolve the race by waking someone — possibly ourselves; either
		// way the token is consumed below or by another worker who will
		// find what we saw.
		s.wakeOne(w.id)
	}
	s.note(w.id, telemetry.SchedParks)
	w.parkWait()
}
