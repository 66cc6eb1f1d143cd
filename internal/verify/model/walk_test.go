package model

import (
	"math/rand/v2"
	"testing"
)

// TestListTwoNullJoinRegression replays a witness of the two-null join
// defect: four threads from [50] with a logically deleted node at the
// right end.  Without the join's neighbour check (package listdeque's
// documentation), step 42 points the sentinels at each other over item
// 107 ("abstraction changed at non-linearization step: [107] -> []").
// Every obligation must hold along it, and the schedule must reach the
// neighbour check, so the test keeps exercising the guard it pins.
func TestListTwoNullJoinRegression(t *testing.T) {
	progs := [][]OpSpec{
		{{Kind: PopLeft}, {Kind: PushLeft, Arg: 101}},
		{{Kind: PopRight}, {Kind: PushLeft, Arg: 103}},
		{{Kind: PushRight, Arg: 104}, {Kind: PushLeft, Arg: 105}},
		{{Kind: PopRight}, {Kind: PushRight, Arg: 107}},
	}
	schedule := []int{1, 1, 1, 1, 1, 1, 3, 3, 0, 0, 0, 0, 0, 0, 3, 3, 3, 3, 1, 3,
		3, 3, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 2, 2, 2, 0}
	rep, v := Replay(NewListSys([]uint64{50}, false, true, progs), schedule)
	if v != nil {
		t.Fatalf("replayed witness: %v", v)
	}
	if rep.Transitions != len(schedule) {
		t.Fatalf("replayed %d steps, want %d", rep.Transitions, len(schedule))
	}
	if rep.Events["deleteLeft: other sent deleted elsewhere, retry"]+
		rep.Events["deleteRight: other sent deleted elsewhere, retry"] == 0 {
		t.Fatalf("witness no longer reaches the two-null neighbour check: %v", rep.Events)
	}
}

// randomListSys draws a list system of 4–6 threads, each with 2–5
// operations of every kind (distinct push values), from an initial state
// of up to two items with optional deleted marks at either end.
func randomListSys(rng *rand.Rand) Sys {
	var items []uint64
	for i := rng.IntN(3); i > 0; i-- {
		items = append(items, uint64(50+i))
	}
	arg := uint64(100)
	progs := make([][]OpSpec, 4+rng.IntN(3))
	for i := range progs {
		for j := 2 + rng.IntN(4); j > 0; j-- {
			op := OpSpec{Kind: OpKind(rng.IntN(4))}
			if op.Kind == PushLeft || op.Kind == PushRight {
				op.Arg = arg
				arg++
			}
			progs[i] = append(progs[i], op)
		}
	}
	return NewListSys(items, rng.IntN(2) == 0, rng.IntN(2) == 0, progs)
}

// TestListRandomWalks checks seeded uniform and bursty random schedules
// of list systems larger than Explore can cover, with solo termination
// checked where each walk stops.
func TestListRandomWalks(t *testing.T) {
	walks := 20000
	if testing.Short() {
		walks = 2000
	}
	rng := rand.New(rand.NewPCG(16, 1))
	for w := 0; w < walks; w++ {
		s := randomListSys(rng)
		bursty := w%2 == 1
		if sched, v := RandomWalk(s, rng, bursty, 400); v != nil {
			t.Fatalf("walk %d (bursty=%v) schedule %v: %v", w, bursty, sched, v)
		}
	}
}
