package telemetry

import (
	"strings"
	"testing"

	"dcasdeque/internal/dcas"
)

func TestExporter(t *testing.T) {
	sink := NewSink()
	sink.Op(Right, Pushes, 2)
	sink.Op(Left, Pops, 0)
	var st dcas.Stats
	st.Attempts.Add(5)
	st.Failures.Add(2)
	unregister := Register("test_exporter_deque", sink, &st, nil)
	defer unregister()

	body := scrape(t)
	for _, want := range []string{
		`dcasdeque_ops_total{deque="test_exporter_deque",end="right",counter="pushes"} 1`,
		`dcasdeque_ops_total{deque="test_exporter_deque",end="right",counter="retries"} 2`,
		`dcasdeque_ops_total{deque="test_exporter_deque",end="left",counter="pops"} 1`,
		`dcasdeque_dcas_total{deque="test_exporter_deque",event="attempts"} 5`,
		`dcasdeque_dcas_total{deque="test_exporter_deque",event="successes"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}

	// The registry snapshot the exposition renders from carries the
	// same numbers.
	e, ok := snapshotAll()["test_exporter_deque"]
	if !ok {
		t.Fatal("snapshot missing registered deque")
	}
	if e.Telemetry.Right.Pushes != 1 || e.Telemetry.Right.Retries != 2 {
		t.Fatalf("snapshot telemetry = %+v", e.Telemetry)
	}
	if e.DCAS == nil || e.DCAS.Attempts != 5 || e.DCAS.Successes != 3 {
		t.Fatalf("snapshot dcas = %+v", e.DCAS)
	}

	// Unregister removes the entry.
	unregister()
	if strings.Contains(scrape(t), "test_exporter_deque") {
		t.Fatal("entry still exported after unregister")
	}
	unregister() // idempotent
}

func TestRegisterReplaces(t *testing.T) {
	a, b := NewSink(), NewSink()
	a.Op(Left, Pushes, 0)
	b.Op(Left, Pushes, 0)
	b.Op(Left, Pushes, 0)
	unA := Register("test_replace_deque", a, nil, nil)
	unB := Register("test_replace_deque", b, nil, nil)
	defer unB()

	const want = `dcasdeque_ops_total{deque="test_replace_deque",end="left",counter="pushes"} 2`
	if body := scrape(t); !strings.Contains(body, want) {
		t.Fatalf("replacement not visible:\n%s", body)
	}

	// The stale unregister func must not remove the replacement.
	unA()
	if !strings.Contains(scrape(t), want) {
		t.Fatal("stale unregister removed the replacement entry")
	}
}

func TestRegisterSchedReplaces(t *testing.T) {
	// The RegisterSched path goes through the same ownership-checked
	// register(); this pins the contract independently — a scheduler
	// rebuilt under the same name must survive the old instance's
	// deferred unregister.
	a, b := NewSchedSink(1), NewSchedSink(1)
	a.Inc(0, SchedRuns)
	b.Inc(0, SchedRuns)
	b.Inc(0, SchedRuns)
	unA := RegisterSched("test_replace_sched", a)
	unB := RegisterSched("test_replace_sched", b)
	defer unB()

	unA() // stale: must not remove b's entry
	const want = `dcasdeque_sched_events_total{sched="test_replace_sched",worker="0",event="runs"} 2`
	if body := scrape(t); !strings.Contains(body, want) {
		t.Fatalf("stale sched unregister removed the replacement:\n%s", body)
	}
	unB()
	if strings.Contains(scrape(t), "test_replace_sched") {
		t.Fatal("entry still exported after unregister")
	}
}
