package arena

import (
	"testing"
	"unsafe"

	"dcasdeque/internal/dcas"
)

// TestHotWordLayout pins the arena's cache geometry: the freelist head and
// the bump pointer, which every Alloc and Free compare-and-swaps from
// whichever core runs it, must each sit a full false-sharing range away
// from the read-mostly header that every slot lookup reads, from the
// occupancy ledger, and from each other.
func TestHotWordLayout(t *testing.T) {
	var a Arena[uint64]
	header := map[string]uintptr{
		"blockSize":  unsafe.Offsetof(a.blockSize),
		"blockShift": unsafe.Offsetof(a.blockShift),
		"capacity":   unsafe.Offsetof(a.capacity),
		"reuse":      unsafe.Offsetof(a.reuse),
		"blocks":     unsafe.Offsetof(a.blocks),
		"slotBytes":  unsafe.Offsetof(a.slotBytes),
	}
	ledger := map[string]uintptr{
		"allocs":    unsafe.Offsetof(a.allocs),
		"frees":     unsafe.Offsetof(a.frees),
		"retired":   unsafe.Offsetof(a.retired),
		"live":      unsafe.Offsetof(a.live),
		"highWater": unsafe.Offsetof(a.highWater),
		"slabs":     unsafe.Offsetof(a.slabs),
	}
	hot := map[string]uintptr{
		"free": unsafe.Offsetof(a.free),
		"bump": unsafe.Offsetof(a.bump),
	}
	apart := func(x, y uintptr) bool {
		if x > y {
			x, y = y, x
		}
		return y-x >= dcas.FalseSharingRange
	}
	for hn, ho := range hot {
		for _, group := range []map[string]uintptr{header, ledger} {
			for n, o := range group {
				if !apart(ho, o) {
					t.Errorf("%s (offset %d) is within %d bytes of %s (offset %d)",
						hn, ho, dcas.FalseSharingRange, n, o)
				}
			}
		}
	}
	if !apart(hot["free"], hot["bump"]) {
		t.Errorf("free (offset %d) and bump (offset %d) share a false-sharing range",
			hot["free"], hot["bump"])
	}
	// The ledger is written on every Alloc and Free, so it must also clear
	// the header and whatever follows the arena in memory.
	for ln, lo := range ledger {
		for n, o := range header {
			if !apart(lo, o) {
				t.Errorf("ledger %s (offset %d) is within %d bytes of header %s (offset %d)",
					ln, lo, dcas.FalseSharingRange, n, o)
			}
		}
		if trail := unsafe.Sizeof(a) - lo; trail < dcas.FalseSharingRange {
			t.Errorf("ledger %s trailed by only %d bytes, want ≥ %d", ln, trail, dcas.FalseSharingRange)
		}
	}
}
