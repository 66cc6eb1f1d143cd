package telemetry

import (
	"testing"

	"dcasdeque/internal/metrics"
)

func TestSinkLatencyDisabled(t *testing.T) {
	s := NewSink()
	if s.LatencyEnabled() {
		t.Fatal("fresh sink reports latency enabled")
	}
	// OpTimed with start == 0 is exactly Op: counters move, no histogram
	// exists to record into.
	s.OpTimed(Left, Pushes, 3, 0)
	sn := s.Snapshot()
	if sn.Left.Pushes != 1 || sn.Left.Retries != 3 {
		t.Fatalf("counters: %+v", sn.Left)
	}
	if sn.Latency != nil {
		t.Fatal("Snapshot.Latency non-nil without EnableLatency")
	}
	// A stale non-zero stamp on a disabled sink must also be a no-op for
	// latency (the lat nil-check guards it).
	s.OpTimed(Left, Pushes, 0, metrics.Nanotime())
	s.Latency(Right, 0, metrics.Nanotime())
	if s.Snapshot().Latency != nil {
		t.Fatal("latency recorded on disabled sink")
	}
}

func TestSinkOpTimed(t *testing.T) {
	s := NewSink().EnableLatency()
	s.EnableLatency() // idempotent
	if !s.LatencyEnabled() {
		t.Fatal("EnableLatency did not enable")
	}
	// Uncontended op: op histogram only.
	s.OpTimed(Left, Pushes, 0, metrics.Nanotime()-100)
	// Contended op: op and spin histograms.
	s.OpTimed(Left, Pops, 2, metrics.Nanotime()-1000)
	// start == 0: counters only, even with latency enabled (the core had
	// stamping off — mixed configurations must not record garbage).
	s.OpTimed(Left, Pushes, 0, 0)
	// Latency-only flush (the Chase–Lev batch path): histogram moves,
	// counters do not.
	s.Latency(Right, 1, metrics.Nanotime()-500)

	sn := s.Snapshot()
	if sn.Left.Pushes != 2 || sn.Left.Pops != 1 || sn.Left.Retries != 2 {
		t.Fatalf("counters: %+v", sn.Left)
	}
	if sn.Right.Pushes != 0 || sn.Right.Pops != 0 {
		t.Fatalf("Latency moved counters: %+v", sn.Right)
	}
	l := sn.Latency
	if l == nil {
		t.Fatal("Snapshot.Latency nil with latency enabled")
	}
	if l.Left.Op.N != 2 {
		t.Fatalf("left op n = %d, want 2", l.Left.Op.N)
	}
	if l.Left.Spin.N != 1 {
		t.Fatalf("left spin n = %d, want 1 (only the retried op)", l.Left.Spin.N)
	}
	if l.Right.Op.N != 1 || l.Right.Spin.N != 1 {
		t.Fatalf("right op/spin n = %d/%d, want 1/1", l.Right.Op.N, l.Right.Spin.N)
	}
	if l.Left.Op.Min == 0 || l.Left.Op.Max < l.Left.Op.Min {
		t.Fatalf("left op extremes: %+v", l.Left.Op)
	}
	if got := l.End(Left).Op.N; got != l.Left.Op.N {
		t.Fatalf("End(Left) = %d, want %d", got, l.Left.Op.N)
	}

	s.Reset()
	sn = s.Snapshot()
	if sn.Left.Pushes != 0 {
		t.Fatalf("counters survive Reset: %+v", sn.Left)
	}
	if sn.Latency == nil || sn.Latency.Left.Op.N != 0 {
		t.Fatalf("latency survives Reset: %+v", sn.Latency)
	}
}

func TestSchedSinkLatency(t *testing.T) {
	s := NewSchedSink(4)
	if s.LatencyEnabled() {
		t.Fatal("fresh sched sink reports latency enabled")
	}
	// Disabled: Latency is a no-op, not a panic.
	s.Latency(0, SchedSubmitRun, 100)
	if s.Snapshot().Latencies != nil {
		t.Fatal("Latencies non-nil without EnableLatency")
	}

	s.EnableLatency()
	s.EnableLatency() // idempotent
	s.Latency(0, SchedSubmitRun, 100)
	s.Latency(3, SchedSubmitRun, 200)
	s.Latency(1, SchedStealRun, 50)
	s.Latency(SchedExternal, SchedParkWake, 75) // external lane must not panic
	sn := s.Snapshot()
	l := sn.Latencies
	if l == nil {
		t.Fatal("Latencies nil with latency enabled")
	}
	if l.SubmitRun.N != 2 || l.SubmitRun.Min != 100 || l.SubmitRun.Max != 200 {
		t.Fatalf("submit_run: %+v", l.SubmitRun)
	}
	if l.StealRun.N != 1 || l.ParkWake.N != 1 {
		t.Fatalf("steal_run/park_wake n = %d/%d", l.StealRun.N, l.ParkWake.N)
	}
	for k := SchedLatency(0); k < NumSchedLatencies; k++ {
		if l.Get(k).N == 0 {
			t.Errorf("Get(%v) empty", k)
		}
	}
	if l.Get(NumSchedLatencies).N != 0 {
		t.Error("Get(out of range) non-empty")
	}
}

func TestSchedLatencyStrings(t *testing.T) {
	want := map[SchedLatency]string{
		SchedSubmitRun:    "submit_run",
		SchedStealRun:     "steal_run",
		SchedParkWake:     "park_wake",
		NumSchedLatencies: "unknown",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), w)
		}
	}
}
