// Package model is an explicit-state model checker for the two deque
// algorithms, discharging the proof obligations of Section 5 of
// "DCAS-Based Concurrent Deques" (Agesen et al., SPAA 2000) by exhaustive
// enumeration instead of first-order deduction (the paper used the
// Simplify prover).
//
// The algorithms are transliterated into step machines whose atomic
// actions are exactly the shared-memory accesses of the pseudocode (one
// Read, Write or DCAS per step; DCAS is a single atomic step, as in the
// paper's model where "each such transition is the result of a DCAS
// execution").  The explorer enumerates every interleaving of every
// thread's steps from a given initial state and checks, at every reachable
// state and transition, the same obligations the paper proves:
//
//   - the representation invariant holds (Figures 18, 24, 25) — checked
//     through each algorithm's Abstract, which fails outside the
//     invariant's domain;
//   - the abstraction function changes only at linearization points, and
//     each linearization corresponds to a correct sequential transition
//     with the correct return value (the ProperTransition obligations of
//     Figures 21–23 and 26–29);
//   - optionally, a solo-termination check: from every reachable state,
//     any single thread scheduled alone completes its operation within a
//     bounded number of steps — an operational counterpart of the
//     non-blocking property (Theorems 3.1 and 4.1): an operation can be
//     delayed only by interference from other operations' steps.
//
// State spaces are bounded (few threads, few operations, small deques) but
// coverage within the bound is exhaustive, including every adversarial
// schedule such as the Figure 6 steal and the Figure 16 two-sided delete
// contention.  Seeded random walks (RandomWalk, Replay) check the same
// obligations along single schedules of systems too large to enumerate.
package model

import (
	"fmt"
	"strings"

	"dcasdeque/internal/spec"
)

// OpKind identifies one of the four deque operations.
type OpKind uint8

// The four deque operations of Section 2.2, plus the batch steal of the
// Chase–Lev backend (several popLefts committing at one CAS).
const (
	PushLeft OpKind = iota
	PushRight
	PopLeft
	PopRight
	// PopLeftBatch is a multi-element left pop that linearizes as a
	// block: the values it claimed are carried in Lin.Multi and checked
	// as that many consecutive sequential popLefts at the single commit
	// step.
	PopLeftBatch
)

// String returns the paper's name for the operation.
func (k OpKind) String() string {
	switch k {
	case PushLeft:
		return "pushLeft"
	case PushRight:
		return "pushRight"
	case PopLeft:
		return "popLeft"
	case PopRight:
		return "popRight"
	case PopLeftBatch:
		return "popLeftMany"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// OpSpec is one operation in a thread's program.
type OpSpec struct {
	Kind OpKind
	Arg  uint64 // pushed value; ignored for pops
}

// String renders the op as pushRight(5) / popLeft().
func (o OpSpec) String() string {
	switch o.Kind {
	case PushLeft, PushRight:
		return fmt.Sprintf("%v(%d)", o.Kind, o.Arg)
	default:
		return fmt.Sprintf("%v()", o.Kind)
	}
}

// Lin is a linearization record emitted by a step: the operation took
// effect atomically at this step (or, if Retro is set, at the thread's
// earlier read of the sentinel pointer — the popRight line 3 case of
// Figure 28, where the return decision is made after the linearization
// point).
type Lin struct {
	Thread int
	Op     OpSpec
	Val    uint64 // value returned by an Okay pop
	Res    spec.Result
	// Retro marks the sentL/sentR empty return, linearized at the earlier
	// sentinel-pointer read; RetroOK records whether the abstract deque
	// was empty at that read.
	Retro   bool
	RetroOK bool
	// Multi carries the values a PopLeftBatch claimed, leftmost first:
	// the step is checked as len(Multi) consecutive sequential popLefts,
	// all taking effect at this one commit (the Chase–Lev batch steal's
	// single-CAS claim).  Empty for every other kind.
	Multi []uint64
}

// Sys is a checkable system: simulated shared memory plus thread step
// machines for one of the two algorithms.
type Sys interface {
	// Clone returns a deep copy.
	Clone() Sys
	// Key returns a canonical encoding of the complete state.
	Key() string
	// NumThreads reports the number of threads.
	NumThreads() int
	// Done reports whether thread i has finished its program.
	Done(i int) bool
	// Step advances thread i by one atomic action.  absEmpty reports
	// whether the abstraction is currently empty (consumed by the
	// retroactive sentinel-read linearization).  It returns a short label
	// (for traces and event counting) and an optional linearization.
	Step(i int, absEmpty bool) (label string, lin *Lin)
	// Abstract applies the representation invariant and abstraction
	// function to the current shared memory.
	Abstract() ([]uint64, error)
	// Capacity returns the abstract deque capacity (spec.Unbounded for the
	// list algorithm).
	Capacity() int
	// SoloBound is the maximum number of solo steps a thread may need to
	// finish its current operation without interference.
	SoloBound() int
}

// Report summarizes an exploration.
type Report struct {
	States      int            // distinct states visited
	Transitions int            // transitions executed
	Linearized  int            // linearization points checked
	Terminals   int            // states with all threads done
	Events      map[string]int // step-label counts (e.g. both Figure 16 outcomes)
}

// Violation describes a failed proof obligation with the interleaving that
// reached it.
type Violation struct {
	Msg   string
	Trace []string
}

// Error formats the violation with its full schedule.
func (v *Violation) Error() string {
	return fmt.Sprintf("%s\n  schedule:\n    %s", v.Msg, strings.Join(v.Trace, "\n    "))
}

// Options configures an exploration.
type Options struct {
	// MaxStates aborts the exploration if exceeded (0 = 5,000,000).
	MaxStates int
	// CheckSolo enables the solo-termination (non-blocking) check at every
	// visited state.
	CheckSolo bool
}

// Explore exhaustively enumerates all interleavings from init, checking
// every proof obligation.  It returns a report, or a violation describing
// the first failed obligation and the schedule reaching it.
func Explore(init Sys, opts Options) (*Report, *Violation) {
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = 5_000_000
	}
	rep := &Report{Events: map[string]int{}}
	visited := map[string]bool{}

	absInit, err := init.Abstract()
	if err != nil {
		return rep, &Violation{Msg: fmt.Sprintf("initial state violates RepInv: %v", err)}
	}
	_ = absInit

	type frame struct {
		sys   Sys
		trace []string
	}
	stack := []frame{{sys: init, trace: nil}}
	visited[init.Key()] = true
	rep.States = 1

	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		abs0, err := f.sys.Abstract()
		if err != nil {
			return rep, &Violation{Msg: fmt.Sprintf("RepInv violated: %v", err), Trace: f.trace}
		}

		if opts.CheckSolo {
			if v := checkSolo(f.sys, f.trace); v != nil {
				return rep, v
			}
		}

		anyRunnable := false
		for i := 0; i < f.sys.NumThreads(); i++ {
			if f.sys.Done(i) {
				continue
			}
			anyRunnable = true
			ns := f.sys.Clone()
			label, _, msg := checkedStep(ns, i, abs0, rep)
			trace := append(append([]string(nil), f.trace...),
				fmt.Sprintf("T%d: %s", i, label))
			if msg != "" {
				return rep, &Violation{Msg: msg, Trace: trace}
			}

			k := ns.Key()
			if !visited[k] {
				visited[k] = true
				rep.States++
				if rep.States > maxStates {
					return rep, &Violation{Msg: fmt.Sprintf("state space exceeds %d states", maxStates), Trace: trace}
				}
				stack = append(stack, frame{sys: ns, trace: trace})
			}
		}
		if !anyRunnable {
			rep.Terminals++
		}
	}
	return rep, nil
}

// checkedStep advances s in place by one step of thread i, from a state
// whose abstraction is abs0, and checks the per-step obligations: the
// representation invariant holds after the step, the abstraction changes
// only at a linearization point, and each linearization is a correct
// sequential transition.  It returns the step's label, the new
// abstraction, and a failure message ("" when every obligation holds).
func checkedStep(s Sys, i int, abs0 []uint64, rep *Report) (label string, abs1 []uint64, msg string) {
	label, lin := s.Step(i, len(abs0) == 0)
	rep.Transitions++
	rep.Events[label]++
	abs1, err := s.Abstract()
	if err != nil {
		return label, nil, fmt.Sprintf("RepInv violated after step: %v", err)
	}
	if lin == nil {
		if !equalSeq(abs0, abs1) {
			return label, abs1, fmt.Sprintf("abstraction changed at non-linearization step: %v -> %v", abs0, abs1)
		}
		return label, abs1, ""
	}
	rep.Linearized++
	return label, abs1, checkLin(lin, abs0, abs1, s.Capacity())
}

// checkLin verifies that a linearization corresponds to a correct
// sequential transition of the abstract deque (the ProperTransition
// obligations).
func checkLin(lin *Lin, abs0, abs1 []uint64, capacity int) string {
	if lin.Retro {
		// Linearized at the earlier sentinel read; the obligation is that
		// the deque was empty there, and that this step changed nothing.
		if !lin.RetroOK {
			return fmt.Sprintf("T%d %v returned empty but abstraction was non-empty at its linearization read", lin.Thread, lin.Op)
		}
		if lin.Res != spec.Empty {
			return "retro linearization with non-empty result"
		}
		if !equalSeq(abs0, abs1) {
			return "retro-linearized step changed the abstraction"
		}
		return ""
	}
	ref := spec.FromSlice(abs0, capacity)
	if lin.Op.Kind == PopLeftBatch {
		return checkBatchLin(lin, ref, abs0, abs1)
	}
	var wantVal uint64
	var wantRes spec.Result
	switch lin.Op.Kind {
	case PushLeft:
		wantRes = ref.PushLeft(lin.Op.Arg)
	case PushRight:
		wantRes = ref.PushRight(lin.Op.Arg)
	case PopLeft:
		wantVal, wantRes = ref.PopLeft()
	case PopRight:
		wantVal, wantRes = ref.PopRight()
	}
	if lin.Res != wantRes {
		return fmt.Sprintf("T%d %v linearized with result %v; sequential spec on %v gives %v",
			lin.Thread, lin.Op, lin.Res, abs0, wantRes)
	}
	if lin.Res == spec.Okay && (lin.Op.Kind == PopLeft || lin.Op.Kind == PopRight) && lin.Val != wantVal {
		return fmt.Sprintf("T%d %v returned %d; sequential spec on %v gives %d",
			lin.Thread, lin.Op, lin.Val, abs0, wantVal)
	}
	if !equalSeq(ref.Items(), abs1) {
		return fmt.Sprintf("T%d %v: post-state abstraction %v, sequential spec gives %v",
			lin.Thread, lin.Op, abs1, ref.Items())
	}
	return ""
}

// checkBatchLin verifies a PopLeftBatch linearization: an Empty result
// claims nothing, an Okay result claims Multi — checked as that many
// consecutive sequential popLefts all taking effect at the one commit.
func checkBatchLin(lin *Lin, ref *spec.Deque, abs0, abs1 []uint64) string {
	if lin.Res == spec.Empty {
		if len(lin.Multi) != 0 {
			return "empty batch steal carries values"
		}
		if len(abs0) != 0 {
			return fmt.Sprintf("T%d %v returned empty but abstraction was %v", lin.Thread, lin.Op, abs0)
		}
	}
	if lin.Res == spec.Okay && len(lin.Multi) == 0 {
		return "successful batch steal claims no values"
	}
	for j, want := range lin.Multi {
		v, r := ref.PopLeft()
		if r != spec.Okay || v != want {
			return fmt.Sprintf("T%d %v claimed %v; sequential spec on %v gives (%d,%v) at position %d, want %d",
				lin.Thread, lin.Op, lin.Multi, abs0, v, r, j, want)
		}
	}
	if !equalSeq(ref.Items(), abs1) {
		return fmt.Sprintf("T%d %v: post-state abstraction %v, sequential spec gives %v",
			lin.Thread, lin.Op, abs1, ref.Items())
	}
	return ""
}

// checkSolo verifies the non-blocking property operationally: every
// unfinished thread, run alone from this state, completes its current
// operation within the system's solo bound.
func checkSolo(s Sys, trace []string) *Violation {
	for i := 0; i < s.NumThreads(); i++ {
		if s.Done(i) {
			continue
		}
		solo := s.Clone()
		opsBefore := soloOpsRemaining(solo, i)
		finished := false
		for step := 0; step < solo.SoloBound(); step++ {
			abs0, _ := solo.Abstract()
			solo.Step(i, len(abs0) == 0)
			if soloOpsRemaining(solo, i) < opsBefore || solo.Done(i) {
				finished = true
				break
			}
		}
		if !finished {
			return &Violation{
				Msg:   fmt.Sprintf("non-blocking violation: thread %d running alone does not finish its operation within %d steps", i, s.SoloBound()),
				Trace: trace,
			}
		}
	}
	return nil
}

// soloCounter lets checkSolo observe per-thread op progress.
type soloCounter interface {
	OpsRemaining(i int) int
}

func soloOpsRemaining(s Sys, i int) int {
	if sc, ok := s.(soloCounter); ok {
		return sc.OpsRemaining(i)
	}
	if s.Done(i) {
		return 0
	}
	return 1
}

func equalSeq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
