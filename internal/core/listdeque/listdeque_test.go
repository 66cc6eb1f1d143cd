package listdeque

import (
	"math/rand/v2"
	"testing"

	"dcasdeque/internal/dcas"
	"dcasdeque/internal/spec"
	"dcasdeque/internal/tagptr"
)

// variants returns a constructor per configuration: the default provider
// crossed with every reclamation mode and eager/lazy physical deletion,
// plus an explicit GlobalLock through WithProvider.
func variants() map[string]func() *Deque {
	return map[string]func() *Deque{
		"default/reuse/lazy": func() *Deque {
			return New()
		},
		"default/reuse/eager": func() *Deque {
			return New(WithEagerDelete(true))
		},
		"default/gc/lazy": func() *Deque {
			return New(WithNodeReuse(false), WithMaxNodes(1<<16))
		},
		"default/gc/eager": func() *Deque {
			return New(WithNodeReuse(false), WithMaxNodes(1<<16), WithEagerDelete(true))
		},
		"GlobalLock/reuse/lazy": func() *Deque {
			return New(WithProvider(new(dcas.GlobalLock)))
		},
		"GlobalLock/gc/eager": func() *Deque {
			return New(WithProvider(new(dcas.GlobalLock)),
				WithNodeReuse(false), WithMaxNodes(1<<16), WithEagerDelete(true))
		},
	}
}

func mustItems(t *testing.T, d *Deque) []uint64 {
	t.Helper()
	items, err := d.Items()
	if err != nil {
		t.Fatalf("abstraction undefined: %v", err)
	}
	return items
}

func checkInv(t *testing.T, d *Deque) {
	t.Helper()
	if err := d.CheckRepInv(); err != nil {
		t.Fatalf("representation invariant violated: %v", err)
	}
}

// checkAccounting verifies that live arena nodes are exactly the two
// sentinels, the abstract items, and any still-marked (logically deleted
// but not yet physically deleted) nodes — i.e. no node is leaked and none
// freed early.  Quiescent only.
func checkAccounting(t *testing.T, d *Deque) {
	t.Helper()
	st, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	if st.LeftDeleted {
		marked++
	}
	if st.RightDeleted {
		marked++
	}
	want := 2 + len(Abstract(st)) + marked
	if got := d.Arena().Live(); got != want {
		t.Fatalf("node accounting: %d live, want %d (2 sentinels + %d items + %d marked)",
			got, want, len(Abstract(st)), marked)
	}
}

// TestInitialStateIsFig9Empty checks the top state of Figure 9: the
// sentinels point at each other, both deleted bits false.
func TestInitialStateIsFig9Empty(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			st, err := d.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Seq) != 2 {
				t.Fatalf("initial sequence has %d nodes, want 2 sentinels", len(st.Seq))
			}
			if st.LeftDeleted || st.RightDeleted {
				t.Fatal("initial deleted bits set")
			}
			checkInv(t, d)
			if items := mustItems(t, d); len(items) != 0 {
				t.Fatalf("initial items %v", items)
			}
		})
	}
}

func TestPopOnEmpty(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			if v, r := d.PopRight(); r != spec.Empty || v != 0 {
				t.Fatalf("popRight = (%d, %v)", v, r)
			}
			if v, r := d.PopLeft(); r != spec.Empty || v != 0 {
				t.Fatalf("popLeft = (%d, %v)", v, r)
			}
			checkInv(t, d)
			checkAccounting(t, d)
		})
	}
}

func TestPushReservedValuePanics(t *testing.T) {
	d := New()
	for _, v := range []uint64{Null, SentL, SentR} {
		for _, left := range []bool{false, true} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("push(left=%v) of reserved word %d did not panic", left, v)
					}
				}()
				if left {
					d.PushLeft(v)
				} else {
					d.PushRight(v)
				}
			}()
		}
	}
}

// TestFig12PopRightMarks checks the logical-deletion step of Figure 12: a
// popRight nulls the node's value and sets the right sentinel's deleted
// bit, leaving the node physically present.
func TestFig12PopRightMarks(t *testing.T) {
	d := New() // lazy deletion
	d.PushRight(10)
	d.PushRight(20)
	v, r := d.PopRight()
	if r != spec.Okay || v != 20 {
		t.Fatalf("popRight = (%d, %v)", v, r)
	}
	st, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !st.RightDeleted {
		t.Fatal("right deleted bit not set after lazy popRight")
	}
	// The marked node is still in the chain with a null value.
	if len(st.Seq) != 4 {
		t.Fatalf("chain has %d nodes, want SL + item + marked + SR", len(st.Seq))
	}
	if st.Seq[2].Value != Null {
		t.Fatalf("marked node holds %d, want null", st.Seq[2].Value)
	}
	checkInv(t, d)
	if items := mustItems(t, d); len(items) != 1 || items[0] != 10 {
		t.Fatalf("abstract items %v, want [10]", items)
	}
	checkAccounting(t, d)
}

// TestFig9DeletedEmptyStates constructs the three non-trivial empty states
// of Figure 9 (right-deleted, left-deleted, two deleted cells) and checks
// each abstracts to the empty deque while satisfying RepInv.
func TestFig9DeletedEmptyStates(t *testing.T) {
	// Empty with a right-deleted cell.
	d := New()
	d.PushRight(10)
	if v, r := d.PopRight(); r != spec.Okay || v != 10 {
		t.Fatalf("pop = (%d,%v)", v, r)
	}
	st, _ := d.Snapshot()
	if !st.RightDeleted || st.LeftDeleted || len(st.Seq) != 3 {
		t.Fatalf("right-deleted empty state: %+v", st)
	}
	checkInv(t, d)
	if items := mustItems(t, d); len(items) != 0 {
		t.Fatalf("items %v, want empty", items)
	}

	// Empty with a left-deleted cell.
	d = New()
	d.PushRight(10)
	if v, r := d.PopLeft(); r != spec.Okay || v != 10 {
		t.Fatalf("pop = (%d,%v)", v, r)
	}
	st, _ = d.Snapshot()
	if !st.LeftDeleted || st.RightDeleted || len(st.Seq) != 3 {
		t.Fatalf("left-deleted empty state: %+v", st)
	}
	checkInv(t, d)
	if items := mustItems(t, d); len(items) != 0 {
		t.Fatalf("items %v, want empty", items)
	}

	// Empty with two deleted cells.
	d = New()
	d.PushRight(10)
	d.PushRight(20)
	if v, r := d.PopLeft(); r != spec.Okay || v != 10 {
		t.Fatalf("popLeft = (%d,%v)", v, r)
	}
	if v, r := d.PopRight(); r != spec.Okay || v != 20 {
		t.Fatalf("popRight = (%d,%v)", v, r)
	}
	st, _ = d.Snapshot()
	if !st.LeftDeleted || !st.RightDeleted || len(st.Seq) != 4 {
		t.Fatalf("two-deleted empty state: %+v", st)
	}
	checkInv(t, d)
	if items := mustItems(t, d); len(items) != 0 {
		t.Fatalf("items %v, want empty", items)
	}
	checkAccounting(t, d)

	// Subsequent pops on every deleted-empty state report empty and
	// eventually restore the pristine empty state via physical deletion.
	if _, r := d.PopRight(); r != spec.Empty {
		t.Fatalf("pop on two-deleted empty = %v", r)
	}
	if _, r := d.PopLeft(); r != spec.Empty {
		t.Fatalf("pop on remaining-deleted empty = %v", r)
	}
	st, _ = d.Snapshot()
	if st.LeftDeleted || st.RightDeleted || len(st.Seq) != 2 {
		t.Fatalf("state after cleanup pops: %+v", st)
	}
	checkAccounting(t, d)
}

// TestFig14PushRight checks the splice of Figure 14: the new node ends up
// between the old rightmost node and the right sentinel, doubly linked.
func TestFig14PushRight(t *testing.T) {
	d := New()
	d.PushRight(10)
	if r := d.PushRight(20); r != spec.Okay {
		t.Fatalf("push = %v", r)
	}
	st, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Seq) != 4 {
		t.Fatalf("chain length %d, want 4", len(st.Seq))
	}
	if st.Seq[1].Value != 10 || st.Seq[2].Value != 20 {
		t.Fatalf("chain values %d,%d", st.Seq[1].Value, st.Seq[2].Value)
	}
	checkInv(t, d) // RepInv includes the doubly-linked checks
}

// TestFig15DeleteRight checks physical deletion: starting from a state
// with one value and one right-marked null node (Figure 15 "before"), the
// next right-side operation splices the null node out ("after").
func TestFig15DeleteRight(t *testing.T) {
	d := New()
	d.PushRight(10)
	d.PushRight(20)
	d.PopRight() // marks the node holding 20
	st, _ := d.Snapshot()
	if !st.RightDeleted || len(st.Seq) != 4 {
		t.Fatalf("before state: %+v", st)
	}
	markedIdx := st.Seq[2].Idx

	// The next right-side operation completes the physical deletion.
	if r := d.PushRight(30); r != spec.Okay {
		t.Fatalf("push = %v", r)
	}
	st, _ = d.Snapshot()
	if st.RightDeleted {
		t.Fatal("deleted bit survived the physical deletion")
	}
	for _, ns := range st.Seq {
		if ns.Idx == markedIdx {
			t.Fatal("marked node still physically present after deleteRight")
		}
	}
	checkInv(t, d)
	items := mustItems(t, d)
	if len(items) != 2 || items[0] != 10 || items[1] != 30 {
		t.Fatalf("items %v, want [10 30]", items)
	}
	checkAccounting(t, d)
}

// TestEagerDeleteLeavesNoMarks checks footnote 6: with eager deletion a
// successful pop physically deletes before returning, so the sentinel bits
// are always clear at quiescence.
func TestEagerDeleteLeavesNoMarks(t *testing.T) {
	d := New(WithEagerDelete(true))
	d.PushRight(10)
	d.PushLeft(20)
	d.PopRight()
	d.PopLeft()
	st, _ := d.Snapshot()
	if st.LeftDeleted || st.RightDeleted {
		t.Fatalf("eager mode left marks: %+v", st)
	}
	if len(st.Seq) != 2 {
		t.Fatalf("eager mode left %d nodes in chain", len(st.Seq))
	}
	checkAccounting(t, d)
}

// TestSection22Example replays the Section 2.2 example.
func TestSection22Example(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			d.PushRight(11)
			d.PushLeft(12)
			d.PushRight(13)
			if v, r := d.PopLeft(); r != spec.Okay || v != 12 {
				t.Fatalf("popLeft = (%d, %v), want 12", v, r)
			}
			if v, r := d.PopLeft(); r != spec.Okay || v != 11 {
				t.Fatalf("popLeft = (%d, %v), want 11", v, r)
			}
			items := mustItems(t, d)
			if len(items) != 1 || items[0] != 13 {
				t.Fatalf("items %v, want [13]", items)
			}
		})
	}
}

// TestAllocatorExhaustionReturnsFull checks the paper's footnote 3: when
// the allocator fails, push returns "full".
func TestAllocatorExhaustionReturnsFull(t *testing.T) {
	d := New(WithMaxNodes(4)) // 2 sentinels + 2 items
	if r := d.PushRight(10); r != spec.Okay {
		t.Fatalf("push 1 = %v", r)
	}
	if r := d.PushLeft(11); r != spec.Okay {
		t.Fatalf("push 2 = %v", r)
	}
	if r := d.PushRight(12); r != spec.Full {
		t.Fatalf("push into exhausted arena = %v", r)
	}
	// Items are intact.
	items := mustItems(t, d)
	if len(items) != 2 || items[0] != 11 || items[1] != 10 {
		t.Fatalf("items %v, want [11 10]", items)
	}
	// With reuse enabled, pop + physical deletion makes room again.
	d.PopRight() // marks
	if _, r := d.PopRight(); r != spec.Empty && r != spec.Okay {
		t.Fatalf("second pop = %v", r)
	}
	// The second PopRight triggered deleteRight, freeing a node.
	if r := d.PushRight(13); r != spec.Okay {
		t.Fatalf("push after reclamation = %v", r)
	}
	checkInv(t, d)
}

// TestGCModeNeverReusesNodes verifies the gc-mode fidelity property: no
// node index observed in the chain is ever observed again after physical
// deletion.
func TestGCModeNeverReusesNodes(t *testing.T) {
	d := New(WithNodeReuse(false), WithMaxNodes(1<<12), WithEagerDelete(true))
	seen := map[uint32]bool{}
	for i := 0; i < 200; i++ {
		d.PushRight(uint64(i) + MinUserValue)
		st, err := d.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		idx := st.Seq[1].Idx
		if seen[idx] {
			t.Fatalf("gc mode reused node %d", idx)
		}
		seen[idx] = true
		d.PopLeft()
	}
}

// TestRandomDifferential drives random programs against the sequential
// specification for every variant, checking RepInv and the abstraction
// after every operation.
func TestRandomDifferential(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(42, 43))
			d := mk()
			ref := spec.NewUnbounded()
			next := MinUserValue
			for step := 0; step < 6000; step++ {
				switch rng.IntN(4) {
				case 0:
					if r := d.PushLeft(next); r != spec.Okay {
						t.Fatalf("step %d: pushLeft = %v", step, r)
					}
					ref.PushLeft(next)
					next++
				case 1:
					if r := d.PushRight(next); r != spec.Okay {
						t.Fatalf("step %d: pushRight = %v", step, r)
					}
					ref.PushRight(next)
					next++
				case 2:
					gv, gr := d.PopLeft()
					wv, wr := ref.PopLeft()
					if gr != wr || (gr == spec.Okay && gv != wv) {
						t.Fatalf("step %d: popLeft = (%d,%v), want (%d,%v)", step, gv, gr, wv, wr)
					}
				case 3:
					gv, gr := d.PopRight()
					wv, wr := ref.PopRight()
					if gr != wr || (gr == spec.Okay && gv != wv) {
						t.Fatalf("step %d: popRight = (%d,%v), want (%d,%v)", step, gv, gr, wv, wr)
					}
				}
				if err := d.CheckRepInv(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				items := mustItems(t, d)
				want := ref.Items()
				if len(items) != len(want) {
					t.Fatalf("step %d: items %v, want %v", step, items, want)
				}
				for i := range items {
					if items[i] != want[i] {
						t.Fatalf("step %d: items %v, want %v", step, items, want)
					}
				}
			}
			checkAccounting(t, d)
		})
	}
}

// TestMirrorSymmetry checks that left and right operations are exact
// mirrors on the list deque.
func TestMirrorSymmetry(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	a := New()
	b := New()
	next := MinUserValue
	for step := 0; step < 3000; step++ {
		switch rng.IntN(4) {
		case 0:
			ra := a.PushLeft(next)
			rb := b.PushRight(next)
			if ra != rb {
				t.Fatalf("step %d: mirror push mismatch", step)
			}
			next++
		case 1:
			ra := a.PushRight(next)
			rb := b.PushLeft(next)
			if ra != rb {
				t.Fatalf("step %d: mirror push mismatch", step)
			}
			next++
		case 2:
			va, ra := a.PopLeft()
			vb, rb := b.PopRight()
			if ra != rb || va != vb {
				t.Fatalf("step %d: mirror pop mismatch: (%d,%v) vs (%d,%v)", step, va, ra, vb, rb)
			}
		case 3:
			va, ra := a.PopRight()
			vb, rb := b.PopLeft()
			if ra != rb || va != vb {
				t.Fatalf("step %d: mirror pop mismatch: (%d,%v) vs (%d,%v)", step, va, ra, vb, rb)
			}
		}
	}
	ia := mustItems(t, a)
	ib := mustItems(t, b)
	if len(ia) != len(ib) {
		t.Fatalf("mirror lengths differ: %d vs %d", len(ia), len(ib))
	}
	for i := range ia {
		if ia[i] != ib[len(ib)-1-i] {
			t.Fatalf("mirror contents differ: %v vs %v", ia, ib)
		}
	}
}

// TestStackAndQueueUsage exercises deep LIFO and long FIFO patterns, which
// wrap the marking machinery through many generations.
func TestStackAndQueueUsage(t *testing.T) {
	d := New()
	// Stack on the right.
	for i := 0; i < 500; i++ {
		d.PushRight(uint64(i) + MinUserValue)
	}
	for i := 499; i >= 0; i-- {
		v, r := d.PopRight()
		if r != spec.Okay || v != uint64(i)+MinUserValue {
			t.Fatalf("stack pop %d: (%d, %v)", i, v, r)
		}
	}
	// Queue left-to-right.
	for i := 0; i < 500; i++ {
		d.PushLeft(uint64(i) + MinUserValue)
	}
	for i := 0; i < 500; i++ {
		v, r := d.PopRight()
		if r != spec.Okay || v != uint64(i)+MinUserValue {
			t.Fatalf("queue pop %d: (%d, %v)", i, v, r)
		}
	}
	checkInv(t, d)
	checkAccounting(t, d)
}

// TestPointerWordsWellFormed checks structural sanity of every pointer
// word in a busy deque's chain: interior pointers never carry deleted
// bits, and tags match the arena generations of their targets.
func TestPointerWordsWellFormed(t *testing.T) {
	d := New()
	rng := rand.New(rand.NewPCG(1, 1))
	next := MinUserValue
	for step := 0; step < 500; step++ {
		switch rng.IntN(3) {
		case 0:
			d.PushLeft(next)
			next++
		case 1:
			d.PushRight(next)
			next++
		case 2:
			if rng.IntN(2) == 0 {
				d.PopLeft()
			} else {
				d.PopRight()
			}
		}
		st, err := d.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(st.Seq); i++ {
			w := st.Seq[i].R
			idx := tagptr.MustIdx(w)
			if tagptr.Tag(w) != d.Arena().Gen(idx) {
				t.Fatalf("step %d: R pointer tag %d does not match generation %d of node %d",
					step, tagptr.Tag(w), d.Arena().Gen(idx), idx)
			}
		}
	}
}
