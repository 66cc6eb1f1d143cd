package deque

import (
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStatsDisabled: without the telemetry options, Stats reports not-ok
// and the wrappers never touch a sink.
func TestStatsDisabled(t *testing.T) {
	d := NewArray[int](4)
	if err := d.PushRight(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Stats(); ok {
		t.Fatal("Stats ok on a deque built without WithTelemetry")
	}
	d.CloseTelemetry() // must be a safe no-op
	l := NewList[int]()
	if _, ok := l.Stats(); ok {
		t.Fatal("List Stats ok without WithTelemetry")
	}
	m := NewMutex[int](4)
	if _, ok := m.Stats(); ok {
		t.Fatal("Mutex Stats ok without WithTelemetry")
	}
}

// exercise runs a deterministic single-thread workload whose counter
// totals are known exactly.
func exercise(t *testing.T, d Deque[int]) {
	t.Helper()
	for i := 0; i < 10; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := d.PushLeft(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := d.PopLeft(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := d.PopRight(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.PopRight(); err != ErrEmpty {
		t.Fatalf("pop of drained deque: %v", err)
	}
}

func checkExercised(t *testing.T, st Stats, wantDCAS bool) {
	t.Helper()
	if st.Right.Pushes != 10 || st.Left.Pushes != 4 {
		t.Fatalf("pushes = %d right / %d left, want 10/4", st.Right.Pushes, st.Left.Pushes)
	}
	if st.Left.Pops != 6 || st.Right.Pops != 8 {
		t.Fatalf("pops = %d left / %d right, want 6/8", st.Left.Pops, st.Right.Pops)
	}
	if st.Right.EmptyHits != 1 {
		t.Fatalf("right empty hits = %d, want 1", st.Right.EmptyHits)
	}
	if !wantDCAS {
		return
	}
	// 29 completed operations, each linearizing at one successful DCAS at
	// minimum (uncontended, so no failures are required — but attempts
	// must cover the operations).
	if st.DCAS.Attempts < 29 || st.DCAS.Successes < 29 {
		t.Fatalf("DCAS attempts/successes = %d/%d, want ≥ 29", st.DCAS.Attempts, st.DCAS.Successes)
	}
	if len(st.Locations) == 0 {
		t.Fatal("no per-location attribution")
	}
	var locAttempts uint64
	for _, l := range st.Locations {
		locAttempts += l.Attempts
	}
	// Every DCAS touches exactly two locations.
	if locAttempts != 2*st.DCAS.Attempts {
		t.Fatalf("location attempts = %d, want 2×%d", locAttempts, st.DCAS.Attempts)
	}
}

func TestStatsArray(t *testing.T) {
	d := NewArray[int](16, WithTelemetry())
	exercise(t, d)
	st, ok := d.Stats()
	if !ok {
		t.Fatal("Stats not ok with WithTelemetry")
	}
	checkExercised(t, st, true)
	// Full hits: capacity 2 overflows on the third push.
	small := NewArray[int](2, WithTelemetry())
	_ = small.PushRight(1)
	_ = small.PushRight(2)
	if err := small.PushRight(3); err != ErrFull {
		t.Fatalf("overfull push: %v", err)
	}
	sst, _ := small.Stats()
	if sst.Right.FullHits != 1 {
		t.Fatalf("full hits = %d, want 1", sst.Right.FullHits)
	}
}

// TestStatsArrayWrapsDefaultProvider: with telemetry the array deque
// keeps its default EndLock emulation but wraps it in the attributing
// provider, so the core drives it through the generic, non-inlined path
// (an inlined DCAS would go uncounted) and counts every DCAS exactly.
func TestStatsArrayWrapsDefaultProvider(t *testing.T) {
	d := NewArray[int](16, WithTelemetry())
	core := reflect.ValueOf(d.core).Elem()
	if !core.FieldByName("el").IsNil() {
		t.Fatal("instrumented array deque takes the inlined EndLock path")
	}
	wrapped := core.FieldByName("prov").Elem().Elem().FieldByName("p").Elem()
	if got := wrapped.Type().String(); got != "*dcas.EndLock" {
		t.Fatalf("wrapped provider is %s, want *dcas.EndLock", got)
	}
	exercise(t, d)
	st, _ := d.Stats()
	// Uncontended, each of the 29 operations linearizes at exactly one
	// DCAS (the final pop at its empty-confirming DCAS).
	if st.DCAS.Attempts != 29 || st.DCAS.Failures != 0 {
		t.Fatalf("DCAS attempts/failures = %d/%d, want 29/0", st.DCAS.Attempts, st.DCAS.Failures)
	}
}

func TestStatsListVariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
		ref  bool
	}{
		{"deleted-bit", nil, false},
		{"dummy", []Option{WithDummyNodes()}, false},
		{"lfrc", []Option{WithLFRC()}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewList[int](append(tc.opts, WithTelemetry())...)
			exercise(t, d)
			st, ok := d.Stats()
			if !ok {
				t.Fatal("Stats not ok with WithTelemetry")
			}
			checkExercised(t, st, true)
			if st.Left.LogicalDeletes != st.Left.Pops || st.Right.LogicalDeletes != st.Right.Pops {
				t.Fatalf("logical deletes %d/%d != pops %d/%d",
					st.Left.LogicalDeletes, st.Right.LogicalDeletes, st.Left.Pops, st.Right.Pops)
			}
			// Every node eventually leaves the list through a physical splice.
			if tot := st.Left.PhysicalDeletes + st.Right.PhysicalDeletes; tot == 0 {
				t.Fatal("no physical deletes recorded")
			}
			if tc.ref && (st.Ref.Incs == 0 || st.Ref.Decs == 0 || st.Ref.Frees == 0) {
				t.Fatalf("LFRC ref counters empty: %+v", st.Ref)
			}
			if !tc.ref && st.Ref != (RefStats{}) {
				t.Fatalf("non-LFRC deque recorded ref events: %+v", st.Ref)
			}
		})
	}
}

func TestStatsMutex(t *testing.T) {
	d := NewMutex[int](16, WithTelemetry())
	exercise(t, d)
	st, ok := d.Stats()
	if !ok {
		t.Fatal("Stats not ok with WithTelemetry")
	}
	checkExercised(t, st, false)
	if st.DCAS.Attempts != 0 {
		t.Fatalf("mutex deque counted DCAS attempts: %d", st.DCAS.Attempts)
	}
}

// TestStatsContended: concurrent traffic on both ends must surface
// retries (the acceptance criterion: per-end DCAS retry counts visible
// through Stats).  The workload hammers a capacity-1 deque, where every
// operation crosses the boundary cell, so any goroutine preempted
// between its read and its DCAS fails that DCAS on resume.  When a
// retry lands is up to the scheduler (on one processor it takes a
// preemption mid-window), so batches repeat under a deadline until one
// is observed.
func TestStatsContended(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	d := NewArray[int](1, WithTelemetry())
	deadline := time.Now().Add(30 * time.Second)
	for {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 5000; i++ {
					if w%2 == 0 {
						_ = d.PushRight(i)
						_, _ = d.PopRight()
					} else {
						_ = d.PushLeft(i)
						_, _ = d.PopLeft()
					}
				}
			}(w)
		}
		wg.Wait()
		st, _ := d.Stats()
		if st.Left.Retries+st.Right.Retries > 0 && st.DCAS.Failures > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no retries or DCAS failures recorded under contention: %+v", st.DCAS)
		}
	}
}

// TestStatsLatency: WithLatency attaches per-end histograms whose op
// counts match the completed-operation totals, on every backend that
// supports the standard exercise.
func TestStatsLatency(t *testing.T) {
	build := map[string]func() Deque[int]{
		"array":      func() Deque[int] { return NewArray[int](16, WithLatency()) },
		"list":       func() Deque[int] { return NewList[int](WithLatency()) },
		"list-dummy": func() Deque[int] { return NewList[int](WithDummyNodes(), WithLatency()) },
		"list-lfrc":  func() Deque[int] { return NewList[int](WithLFRC(), WithLatency()) },
		"mutex":      func() Deque[int] { return NewMutex[int](16, WithLatency()) },
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			d := mk()
			exercise(t, d)
			st, ok := d.(interface{ Stats() (Stats, bool) }).Stats()
			if !ok {
				t.Fatal("Stats not ok with WithLatency (it implies WithTelemetry)")
			}
			checkExercised(t, st, name != "mutex")
			l := st.Latency
			if l == nil {
				t.Fatal("Stats.Latency nil with WithLatency")
			}
			// Every completed operation — successes and boundary hits alike —
			// records one op-latency sample at its flush.
			wantLeft := st.Left.Pushes + st.Left.Pops + st.Left.FullHits + st.Left.EmptyHits
			wantRight := st.Right.Pushes + st.Right.Pops + st.Right.FullHits + st.Right.EmptyHits
			if l.Left.Op.N != wantLeft || l.Right.Op.N != wantRight {
				t.Fatalf("op samples = %d/%d, want %d/%d (left/right)",
					l.Left.Op.N, l.Right.Op.N, wantLeft, wantRight)
			}
			// The spin histogram covers only the contended subpopulation.
			if l.Left.Spin.N > l.Left.Op.N || l.Right.Spin.N > l.Right.Op.N {
				t.Fatalf("spin samples exceed op samples: %+v", l)
			}
			if l.Left.Op.Max < l.Left.Op.Min || l.Left.Op.Sum == 0 {
				t.Fatalf("degenerate left op histogram: %+v", l.Left.Op)
			}
			if m := l.Left.Op.Mean(); m <= 0 {
				t.Fatalf("left op mean = %v", m)
			}
		})
	}
}

// TestStatsLatencyChaseLev: the owner/thief deque records latency on its
// supported operations, including exactly one sample per PopLMany batch.
func TestStatsLatencyChaseLev(t *testing.T) {
	d := NewChaseLev[int](WithLatency())
	for i := 0; i < 10; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.PopRight(); err != nil {
		t.Fatal(err)
	}
	if got := d.PopLMany(4); len(got) != 4 {
		t.Fatalf("PopLMany = %d items, want 4", len(got))
	}
	if err := d.PushLeft(0); err != ErrUnsupported {
		t.Fatalf("PushLeft: %v", err)
	}
	st, ok := d.Stats()
	if !ok || st.Latency == nil {
		t.Fatal("Stats/Latency missing with WithLatency")
	}
	// 10 pushes + 1 pop on the right; the 4-pop batch is one commit and
	// one latency sample on the left; the rejected PushLeft records none.
	if st.Latency.Right.Op.N != 11 {
		t.Fatalf("right op samples = %d, want 11", st.Latency.Right.Op.N)
	}
	if st.Latency.Left.Op.N != 1 {
		t.Fatalf("left op samples = %d, want 1 (one per batch)", st.Latency.Left.Op.N)
	}
}

// TestStatsLatencyAbsentWithoutOption: plain WithTelemetry must not grow
// histograms — the latency surface stays opt-in.
func TestStatsLatencyAbsentWithoutOption(t *testing.T) {
	d := NewArray[int](16, WithTelemetry())
	exercise(t, d)
	st, _ := d.Stats()
	if st.Latency != nil {
		t.Fatal("Stats.Latency present without WithLatency")
	}
}

// TestStatsExported: WithTelemetryName surfaces the deque, with its
// memory ledger, through PrometheusHandler.
func TestStatsExported(t *testing.T) {
	d := NewList[int](WithTelemetryName("exported-test"))
	defer d.CloseTelemetry()
	if err := d.PushRight(7); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	PrometheusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`dcasdeque_ops_total{deque="exported-test",end="right",counter="pushes"} 1`,
		`dcasdeque_mem_occupancy{deque="exported-test",pool="slots",field="live"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	d.CloseTelemetry()
	rec = httptest.NewRecorder()
	PrometheusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rec.Body.String(), `deque="exported-test"`) {
		t.Fatal("deque still exported after CloseTelemetry")
	}
}
