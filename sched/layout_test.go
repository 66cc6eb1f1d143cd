package sched

import (
	"testing"
	"unsafe"

	"dcasdeque/internal/dcas"
)

// TestHotWordLayout pins the scheduler's cache geometry: the injector
// size, the life word and the idle-stack head are each written from
// whichever core submits, refills credit or parks, so each must sit a
// full false-sharing range away from the others, from the read-mostly
// header every task reads, and from whatever follows the scheduler in
// memory.
func TestHotWordLayout(t *testing.T) {
	var s Scheduler
	header := map[string]uintptr{
		"cfg":      unsafe.Offsetof(s.cfg),
		"workers":  unsafe.Offsetof(s.workers),
		"injector": unsafe.Offsetof(s.injector),
		"sizes":    unsafe.Offsetof(s.sizes),
		"sink":     unsafe.Offsetof(s.sink),
		"lat":      unsafe.Offsetof(s.lat),
		"tracing":  unsafe.Offsetof(s.tracing),
	}
	hot := map[string]uintptr{
		"injSize":   unsafe.Offsetof(s.injSize),
		"life":      unsafe.Offsetof(s.life),
		"idle.head": unsafe.Offsetof(s.idle) + unsafe.Offsetof(s.idle.head),
	}
	apart := func(x, y uintptr) bool {
		if x > y {
			x, y = y, x
		}
		return y-x >= dcas.FalseSharingRange
	}
	for hn, ho := range hot {
		for n, o := range header {
			if !apart(ho, o) {
				t.Errorf("%s (offset %d) is within %d bytes of header %s (offset %d)",
					hn, ho, dcas.FalseSharingRange, n, o)
			}
		}
		for n, o := range hot {
			if n < hn && !apart(ho, o) {
				t.Errorf("%s (offset %d) and %s (offset %d) share a false-sharing range",
					hn, ho, n, o)
			}
		}
		if trail := unsafe.Sizeof(s) - ho; trail < dcas.FalseSharingRange {
			t.Errorf("%s trailed by only %d bytes, want ≥ %d", hn, trail, dcas.FalseSharingRange)
		}
	}
}
