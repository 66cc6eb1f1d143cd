package model

import (
	"fmt"
	"strings"

	"dcasdeque/internal/core/listdeque"
	"dcasdeque/internal/spec"
	"dcasdeque/internal/tagptr"
)

// listSys is the checker's model of the linked-list algorithm: a small
// node pool plus one step machine per thread, transliterated from
// Figures 11, 13, 17, 32, 33, 34 with one step per shared-memory access.
//
// Nodes are preallocated statically (the model runs in the paper's GC mode
// — no node index is ever reused — and each push's node index is fixed in
// advance), so allocation introduces no artificial nondeterminism.
// Pointer words are idx<<1 | deletedBit, matching the paper's single-word
// (pointer, deleted) pair.
type listSys struct {
	// nodes[i] = {l, r, val}; 0 is SL, 1 is SR.
	nodes   []listNode
	threads []listThread
}

type listNode struct {
	l, r uint64 // word: idx<<1 | del
	val  uint64 // listdeque.Null / SentL / SentR / user value
}

const (
	slIdx = 0 // left sentinel's node index
	srIdx = 1 // right sentinel's node index
)

func mkw(idx uint32, del bool) uint64 {
	w := uint64(idx) << 1
	if del {
		w |= 1
	}
	return w
}
func widx(w uint64) uint32 { return uint32(w >> 1) }
func wdel(w uint64) bool   { return w&1 != 0 }

// Program counters.  Each step is exactly one shared Read or one DCAS.
const (
	lpcReadSent     = iota // pop line 3 / push line 6: read the sentinel's inward pointer
	lpcPopReadVal          // pop line 4: read the referenced node's value
	lpcPopEmptyDCAS        // pop lines 9-10
	lpcPopMarkDCAS         // pop lines 16-17 (logical deletion)
	lpcPushDCAS            // push lines 16-17 (splice)

	lpcDelReadSent      // delete line 3
	lpcDelReadNbr       // delete line 5: the deleted node's inward pointer
	lpcDelReadNbrVal    // delete line 6
	lpcDelReadNbrBack   // delete line 7
	lpcDelSpliceDCAS    // delete lines 11-12
	lpcDelReadOtherSent // delete line 17
	lpcDelTwoNullDCAS   // delete lines 23-24
)

type listThread struct {
	prog []OpSpec
	// pushNodes[j] is the preassigned node index for the j-th operation if
	// it is a push.
	pushNodes []uint32
	opi       int
	pc        int
	retPC     int // where the delete subroutine returns

	oldW     uint64 // pop/push: the sentinel inward pointer as read
	v        uint64 // pop: the value as read
	dOldW    uint64 // delete: sentinel inward pointer
	dNbrW    uint64 // delete: deleted node's inward pointer (oldLL/oldRR)
	dNbrBack uint64 // delete: neighbour's pointer back (oldLLR/oldRRL)
	dOtherW  uint64 // delete: other sentinel's inward pointer
	absEmpty bool   // abstraction was empty at the last lpcReadSent step
}

// NewListSys builds a model of the list deque.  initial lists the abstract
// items left to right; leftDel/rightDel additionally place a logically
// deleted (null, marked) node at the respective end, enabling the
// deleted-empty initial states of Figure 9 and the Figure 16 scenario.
func NewListSys(initial []uint64, leftDel, rightDel bool, progs [][]OpSpec) Sys {
	sys := &listSys{}
	alloc := func(val uint64) uint32 {
		sys.nodes = append(sys.nodes, listNode{val: val})
		return uint32(len(sys.nodes) - 1)
	}
	alloc(listdeque.SentL) // 0 = SL
	alloc(listdeque.SentR) // 1 = SR

	// Build the chain SL, [left-deleted null], items..., [right-deleted
	// null], SR and wire the pointers.
	chain := []uint32{slIdx}
	if leftDel {
		chain = append(chain, alloc(listdeque.Null))
	}
	for _, v := range initial {
		if v < listdeque.MinUserValue {
			panic("model: initial item collides with a distinguished word")
		}
		chain = append(chain, alloc(v))
	}
	if rightDel {
		chain = append(chain, alloc(listdeque.Null))
	}
	chain = append(chain, srIdx)
	for i := 0; i+1 < len(chain); i++ {
		a, b := chain[i], chain[i+1]
		sys.nodes[a].r = mkw(b, false)
		sys.nodes[b].l = mkw(a, false)
	}
	if leftDel {
		sys.nodes[slIdx].r |= 1
	}
	if rightDel {
		sys.nodes[srIdx].l |= 1
	}

	// Preassign push nodes in (thread, op) order.
	for _, p := range progs {
		t := listThread{prog: p, pc: lpcReadSent, pushNodes: make([]uint32, len(p))}
		for j, op := range p {
			if op.Kind == PushLeft || op.Kind == PushRight {
				if op.Arg < listdeque.MinUserValue {
					panic("model: push argument collides with a distinguished word")
				}
				t.pushNodes[j] = alloc(listdeque.Null) // value filled at init step
			}
		}
		sys.threads = append(sys.threads, t)
	}
	return sys
}

func (s *listSys) Clone() Sys {
	c := &listSys{}
	c.nodes = append([]listNode(nil), s.nodes...)
	c.threads = append([]listThread(nil), s.threads...)
	for i := range c.threads {
		c.threads[i].prog = s.threads[i].prog
		c.threads[i].pushNodes = s.threads[i].pushNodes
	}
	return c
}

func (s *listSys) Key() string {
	var b strings.Builder
	for _, n := range s.nodes {
		fmt.Fprintf(&b, "%d,%d,%d;", n.l, n.r, n.val)
	}
	for _, t := range s.threads {
		fmt.Fprintf(&b, "|%d,%d,%d,%d,%d,%d,%d,%d,%v",
			t.opi, t.pc, t.retPC, t.oldW, t.v, t.dOldW, t.dNbrW, t.dNbrBack, t.absEmpty)
		fmt.Fprintf(&b, ",%d", t.dOtherW)
	}
	return b.String()
}

func (s *listSys) NumThreads() int        { return len(s.threads) }
func (s *listSys) Done(i int) bool        { return s.threads[i].opi >= len(s.threads[i].prog) }
func (s *listSys) OpsRemaining(i int) int { return len(s.threads[i].prog) - s.threads[i].opi }
func (s *listSys) Capacity() int          { return spec.Unbounded }

// SoloBound: a solo op may first complete a pending physical deletion
// (two-phase, ≤ 7 steps each for up to two deletions) and then its own
// operation; 40 steps is a generous bound.
func (s *listSys) SoloBound() int { return 40 }

// snapshot converts the model memory into a listdeque.Snapshot so the
// model checks the same executable RepInv/Abstract as the real
// implementation.
func (s *listSys) snapshot() (listdeque.Snapshot, error) {
	var st listdeque.Snapshot
	idx := uint32(slIdx)
	for steps := 0; ; steps++ {
		if steps > len(s.nodes)+1 {
			return st, fmt.Errorf("model: R-chain does not reach SR (cycle?)")
		}
		n := s.nodes[idx]
		st.Seq = append(st.Seq, listdeque.NodeState{
			Idx:   idx,
			L:     modelWordToTagptr(n.l),
			R:     modelWordToTagptr(n.r),
			Value: n.val,
		})
		if idx == srIdx {
			break
		}
		idx = widx(n.r)
	}
	st.LeftDeleted = wdel(s.nodes[slIdx].r)
	st.RightDeleted = wdel(s.nodes[srIdx].l)
	return st, nil
}

// modelWordToTagptr re-encodes a model pointer word in the tagptr layout
// (tag 0) so the shared invariant code can read it.
func modelWordToTagptr(w uint64) tagptr.Word {
	return tagptr.Pack(widx(w), 0, wdel(w))
}

func (s *listSys) Abstract() ([]uint64, error) {
	st, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	if err := listdeque.RepInvFor(st, slIdx, srIdx); err != nil {
		return nil, err
	}
	return listdeque.Abstract(st), nil
}

// Step executes one atomic action of thread i.
func (s *listSys) Step(i int, absEmpty bool) (string, *Lin) {
	t := &s.threads[i]
	op := t.prog[t.opi]
	right := op.Kind == PushRight || op.Kind == PopRight
	// "my" sentinel inward pointer: SR->L for right ops, SL->R for left.
	loadSent := func() uint64 {
		if right {
			return s.nodes[srIdx].l
		}
		return s.nodes[slIdx].r
	}
	storeSent := func(w uint64) {
		if right {
			s.nodes[srIdx].l = w
		} else {
			s.nodes[slIdx].r = w
		}
	}
	loadOtherSent := func() uint64 {
		if right {
			return s.nodes[slIdx].r
		}
		return s.nodes[srIdx].l
	}
	storeOtherSent := func(w uint64) {
		if right {
			s.nodes[slIdx].r = w
		} else {
			s.nodes[srIdx].l = w
		}
	}
	// inward pointer of a node: the pointer toward this op's side's
	// opposite, i.e. the next node away from my sentinel.
	loadAway := func(idx uint32) uint64 {
		if right {
			return s.nodes[idx].l
		}
		return s.nodes[idx].r
	}
	loadBack := func(idx uint32) uint64 { // pointer toward my sentinel
		if right {
			return s.nodes[idx].r
		}
		return s.nodes[idx].l
	}
	storeBack := func(idx uint32, w uint64) {
		if right {
			s.nodes[idx].r = w
		} else {
			s.nodes[idx].l = w
		}
	}
	farSent := uint32(slIdx)
	sentVal := listdeque.SentL // value meaning "I reached the far sentinel"
	if !right {
		farSent = srIdx
		sentVal = listdeque.SentR
	}
	del := "deleteRight"
	if !right {
		del = "deleteLeft"
	}

	fin := func(val uint64, res spec.Result, retro, retroOK bool) *Lin {
		lin := &Lin{Thread: i, Op: op, Val: val, Res: res, Retro: retro, RetroOK: retroOK}
		t.opi++
		t.pc = lpcReadSent
		t.retPC = 0
		t.oldW, t.v, t.dOldW, t.dNbrW, t.dNbrBack, t.dOtherW = 0, 0, 0, 0, 0, 0
		t.absEmpty = false
		return lin
	}

	switch t.pc {
	case lpcReadSent:
		t.oldW = loadSent()
		t.absEmpty = absEmpty
		switch op.Kind {
		case PopLeft, PopRight:
			t.pc = lpcPopReadVal
			return fmt.Sprintf("%v: read sent ptr=%d/del=%v", op, widx(t.oldW), wdel(t.oldW)), nil
		default: // push
			if wdel(t.oldW) {
				t.retPC = lpcReadSent
				t.pc = lpcDelReadSent
				return fmt.Sprintf("%v: sent deleted, entering %s", op, del), nil
			}
			// Initialize the new node (private until the DCAS publishes
			// it; Figure 37's NewWRTSeq).
			nn := t.pushNodes[t.opi]
			s.nodes[nn].val = op.Arg
			if right {
				s.nodes[nn].r = mkw(srIdx, false)
				s.nodes[nn].l = t.oldW
			} else {
				s.nodes[nn].l = mkw(slIdx, false)
				s.nodes[nn].r = t.oldW
			}
			t.pc = lpcPushDCAS
			return fmt.Sprintf("%v: read sent ptr=%d, node ready", op, widx(t.oldW)), nil
		}

	case lpcPopReadVal: // pop line 4
		t.v = s.nodes[widx(t.oldW)].val
		if t.v == sentVal { // line 5
			return fmt.Sprintf("%v: saw %d (far sentinel), empty", op, t.v),
				fin(0, spec.Empty, true, t.absEmpty)
		}
		if wdel(t.oldW) { // line 6
			t.retPC = lpcReadSent
			t.pc = lpcDelReadSent
			return fmt.Sprintf("%v: sent deleted, entering %s", op, del), nil
		}
		if t.v == listdeque.Null { // line 8
			t.pc = lpcPopEmptyDCAS
		} else {
			t.pc = lpcPopMarkDCAS
		}
		return fmt.Sprintf("%v: read val=%d", op, t.v), nil

	case lpcPopEmptyDCAS: // pop lines 9-10
		nd := widx(t.oldW)
		if loadSent() == t.oldW && s.nodes[nd].val == t.v {
			return fmt.Sprintf("%v: empty-DCAS ok", op), fin(0, spec.Empty, false, false)
		}
		t.pc = lpcReadSent
		return fmt.Sprintf("%v: empty-DCAS failed", op), nil

	case lpcPopMarkDCAS: // pop lines 16-17: logical deletion
		nd := widx(t.oldW)
		if loadSent() == t.oldW && s.nodes[nd].val == t.v {
			storeSent(t.oldW | 1)
			s.nodes[nd].val = listdeque.Null
			return fmt.Sprintf("%v: mark-DCAS ok -> %d", op, t.v), fin(t.v, spec.Okay, false, false)
		}
		t.pc = lpcReadSent
		return fmt.Sprintf("%v: mark-DCAS failed", op), nil

	case lpcPushDCAS: // push lines 16-17: splice
		nbr := widx(t.oldW)
		nn := t.pushNodes[t.opi]
		want := mkw(mySentinel(right), false)
		if loadSent() == t.oldW && loadBack(nbr) == want {
			storeSent(mkw(nn, false))
			storeBack(nbr, mkw(nn, false))
			return fmt.Sprintf("%v: splice-DCAS ok", op), fin(0, spec.Okay, false, false)
		}
		t.pc = lpcReadSent
		return fmt.Sprintf("%v: splice-DCAS failed", op), nil

	// ----- delete subroutine (Figures 17 and 34) -----
	case lpcDelReadSent: // line 3
		t.dOldW = loadSent()
		if !wdel(t.dOldW) { // line 4
			t.pc = t.retPC
			return fmt.Sprintf("%s: bit clear, done", del), nil
		}
		t.pc = lpcDelReadNbr
		return fmt.Sprintf("%s: read sent ptr=%d/del", del, widx(t.dOldW)), nil

	case lpcDelReadNbr: // line 5
		t.dNbrW = loadAway(widx(t.dOldW))
		t.pc = lpcDelReadNbrVal
		return fmt.Sprintf("%s: read nbr=%d", del, widx(t.dNbrW)), nil

	case lpcDelReadNbrVal: // line 6
		nv := s.nodes[widx(t.dNbrW)].val
		if nv != listdeque.Null {
			t.pc = lpcDelReadNbrBack
		} else {
			t.pc = lpcDelReadOtherSent // "there are two null items"
		}
		return fmt.Sprintf("%s: nbr val=%d", del, nv), nil

	case lpcDelReadNbrBack: // line 7
		t.dNbrBack = loadBack(widx(t.dNbrW))
		if widx(t.dNbrBack) != widx(t.dOldW) { // line 8
			t.pc = lpcDelReadSent
			return fmt.Sprintf("%s: nbr back-ptr mismatch, retry", del), nil
		}
		t.pc = lpcDelSpliceDCAS
		return fmt.Sprintf("%s: nbr back-ptr ok", del), nil

	case lpcDelSpliceDCAS: // lines 11-12 (Figure 15)
		nbr := widx(t.dNbrW)
		if loadSent() == t.dOldW && loadBack(nbr) == t.dNbrBack {
			storeSent(t.dNbrW)
			storeBack(nbr, mkw(mySentinel(right), false))
			t.pc = t.retPC
			return fmt.Sprintf("%s: splice ok", del), nil
		}
		t.pc = lpcDelReadSent
		return fmt.Sprintf("%s: splice failed", del), nil

	case lpcDelReadOtherSent: // line 17
		t.dOtherW = loadOtherSent()
		if !wdel(t.dOtherW) { // line 18 guard
			t.pc = lpcDelReadSent
			return fmt.Sprintf("%s: other sent not deleted, retry", del), nil
		}
		// Neighbour check: the other sentinel's deleted node must be the
		// null neighbour read at line 5, or the join would skip the live
		// nodes pushed since (package listdeque's documentation).
		if widx(t.dOtherW) != widx(t.dNbrW) {
			t.pc = lpcDelReadSent
			return fmt.Sprintf("%s: other sent deleted elsewhere, retry", del), nil
		}
		t.pc = lpcDelTwoNullDCAS
		return fmt.Sprintf("%s: other sent deleted too", del), nil

	case lpcDelTwoNullDCAS: // lines 23-24 (Figure 16)
		if loadSent() == t.dOldW && loadOtherSent() == t.dOtherW {
			storeSent(mkw(farSent, false))
			storeOtherSent(mkw(mySentinel(right), false))
			t.pc = t.retPC
			return fmt.Sprintf("%s: two-null ok", del), nil
		}
		t.pc = lpcDelReadSent
		return fmt.Sprintf("%s: two-null failed", del), nil
	}
	panic("listSys: invalid pc")
}

// mySentinel returns the sentinel on the operating side.
func mySentinel(right bool) uint32 {
	if right {
		return srIdx
	}
	return slIdx
}
