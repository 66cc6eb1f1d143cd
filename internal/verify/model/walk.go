package model

import (
	"fmt"
	"math/rand/v2"
)

// Random and replayed schedules.
//
// Explore covers every interleaving, which bounds it to a few threads and
// operations.  A walk covers one interleaving of a larger system — more
// threads, longer programs — under the same per-step obligations, so
// seeded random walks reach schedules the exhaustive bounds exclude, and
// a schedule a walk found replays exactly.

// Replay runs a copy of init along schedule, one step of the named thread
// per entry (entries naming a finished thread are skipped), checking
// Explore's per-step obligations at every step, and then the solo-
// termination check at the state where the schedule ends.  The report
// counts the steps' labels, as Explore's does.
func Replay(init Sys, schedule []int) (*Report, *Violation) {
	k := 0
	rep, _, v := walk(init, func(s Sys) (int, bool) {
		for ; k < len(schedule); k++ {
			if i := schedule[k]; i < 0 || i >= s.NumThreads() || !s.Done(i) {
				k++
				return i, true
			}
		}
		return 0, false
	})
	return rep, v
}

// RandomWalk checks one random schedule from init, as Replay does, and
// returns it.  Each step goes to a uniformly chosen unfinished thread or,
// when bursty, each choice runs for 1–8 consecutive steps (a stalled
// processor that wakes and runs).  The walk's length is drawn uniformly
// from [1, maxLen] and ends early once every thread has finished, so the
// final state, where solo termination is checked, falls anywhere in an
// execution.
func RandomWalk(init Sys, rng *rand.Rand, bursty bool, maxLen int) ([]int, *Violation) {
	n := 1 + rng.IntN(maxLen)
	cur, burst := -1, 0
	var live []int
	_, sched, v := walk(init, func(s Sys) (int, bool) {
		if n == 0 {
			return 0, false
		}
		n--
		if burst > 0 && !s.Done(cur) {
			burst--
			return cur, true
		}
		live = live[:0]
		for i := 0; i < s.NumThreads(); i++ {
			if !s.Done(i) {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			return 0, false
		}
		cur = live[rng.IntN(len(live))]
		if bursty {
			burst = rng.IntN(8)
		}
		return cur, true
	})
	return sched, v
}

// walk steps a copy of init through the threads next chooses until it
// reports false, checking the per-step obligations, then checks solo
// termination at the final state.  It returns the schedule taken.
func walk(init Sys, next func(Sys) (int, bool)) (*Report, []int, *Violation) {
	rep := &Report{Events: map[string]int{}}
	s := init.Clone()
	abs, err := s.Abstract()
	if err != nil {
		return rep, nil, &Violation{Msg: fmt.Sprintf("initial state violates RepInv: %v", err)}
	}
	var sched []int
	var trace []string
	for {
		i, ok := next(s)
		if !ok {
			break
		}
		if i < 0 || i >= s.NumThreads() {
			return rep, sched, &Violation{Msg: fmt.Sprintf("schedule names thread %d of %d", i, s.NumThreads()), Trace: trace}
		}
		sched = append(sched, i)
		label, abs1, msg := checkedStep(s, i, abs, rep)
		trace = append(trace, fmt.Sprintf("T%d: %s", i, label))
		if msg != "" {
			return rep, sched, &Violation{Msg: msg, Trace: trace}
		}
		abs = abs1
	}
	return rep, sched, checkSolo(s, trace)
}
