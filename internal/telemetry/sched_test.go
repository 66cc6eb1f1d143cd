package telemetry

import (
	"strings"
	"sync"
	"testing"
	"unsafe"

	"dcasdeque/internal/dcas"
)

// The per-worker banks must be padded to whole false-sharing ranges so
// adjacent workers in the slice never share a line — the same layout
// contract padlayout enforces for the deque Sink's banks.
func TestSchedBlockPadding(t *testing.T) {
	if s := unsafe.Sizeof(schedBlock{}); s%dcas.FalseSharingRange != 0 {
		t.Fatalf("schedBlock is %d bytes, not a multiple of the %d-byte false-sharing range",
			s, dcas.FalseSharingRange)
	}
}

func TestSchedSinkCounts(t *testing.T) {
	s := NewSchedSink(3)
	s.Inc(0, SchedRuns)
	s.Inc(0, SchedRuns)
	s.Inc(1, SchedSteals)
	s.Add(1, SchedStolen, 4)
	s.Inc(2, SchedParks)
	s.Inc(SchedExternal, SchedSubmits)
	s.Inc(SchedExternal, SchedWakes)
	s.Add(2, SchedStealFails, 0) // no-op

	sn := s.Snapshot()
	if sn.Workers[0].Runs != 2 || sn.Workers[1].Steals != 1 ||
		sn.Workers[1].Stolen != 4 || sn.Workers[2].Parks != 1 {
		t.Fatalf("per-worker counts wrong: %+v", sn.Workers)
	}
	if sn.External.Submits != 1 || sn.External.Wakes != 1 {
		t.Fatalf("external counts wrong: %+v", sn.External)
	}
	if sn.Total.Runs != 2 || sn.Total.Stolen != 4 || sn.Total.Submits != 1 ||
		sn.Total.Wakes != 1 || sn.Total.StealFails != 0 {
		t.Fatalf("totals wrong: %+v", sn.Total)
	}
}

// External-bank recording is multi-writer; per-worker banks are
// single-writer.  Exercise both shapes under the race detector.
func TestSchedSinkConcurrent(t *testing.T) {
	s := NewSchedSink(4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Inc(w, SchedRuns)
				s.Inc(SchedExternal, SchedSubmits)
			}
		}(w)
	}
	wg.Wait()
	sn := s.Snapshot()
	if sn.Total.Runs != 4000 || sn.External.Submits != 4000 {
		t.Fatalf("lost updates: %+v", sn.Total)
	}
}

func TestSchedExporter(t *testing.T) {
	s := NewSchedSink(2)
	s.Inc(0, SchedRuns)
	s.Inc(1, SchedSteals)
	s.Add(1, SchedStolen, 3)
	s.Inc(SchedExternal, SchedSubmits)
	unregister := RegisterSched("test_exporter_sched", s)
	defer unregister()

	body := scrape(t)
	for _, want := range []string{
		`dcasdeque_sched_events_total{sched="test_exporter_sched",worker="0",event="runs"} 1`,
		`dcasdeque_sched_events_total{sched="test_exporter_sched",worker="1",event="steals"} 1`,
		`dcasdeque_sched_events_total{sched="test_exporter_sched",worker="1",event="stolen"} 3`,
		`dcasdeque_sched_events_total{sched="test_exporter_sched",worker="external",event="submits"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
	// The scheduler's totals are the sums over its worker series.
	samples := parseSamples(t, body)
	for ev, want := range map[string]float64{"runs": 1, "steals": 1, "stolen": 3, "submits": 1} {
		if v, _ := sumOf(samples, "dcasdeque_sched_events_total",
			map[string]string{"sched": "test_exporter_sched", "event": ev}); v != want {
			t.Errorf("sum of %s = %v, want %v", ev, v, want)
		}
	}
	// A scheduler entry must not emit deque series.
	if strings.Contains(body, `deque="test_exporter_sched"`) {
		t.Errorf("scheduler entry leaked deque series:\n%s", body)
	}

	e, ok := snapshotAll()["test_exporter_sched"]
	if !ok {
		t.Fatal("snapshot missing scheduler entry")
	}
	if e.Sched == nil || e.Sched.Total.Stolen != 3 || len(e.Sched.Workers) != 2 {
		t.Fatalf("snapshot sched = %+v", e.Sched)
	}
	if e.Telemetry != nil {
		t.Fatalf("scheduler entry carries deque telemetry: %+v", e.Telemetry)
	}

	unregister()
	if strings.Contains(scrape(t), "test_exporter_sched") {
		t.Fatal("entry still exported after unregister")
	}
}
