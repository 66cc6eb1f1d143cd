package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dcasdeque/deque"
	"dcasdeque/internal/telemetry"
)

func TestParse(t *testing.T) {
	sc := parse(`# HELP a_total help text
# TYPE a_total counter
a_total{deque="a",end="left",counter="pushes"} 10
a_total{deque="a",end="left",counter="pops"} 3

junk line with no value
b_seconds_bucket{sched="b \"q\", x",le="+Inf"} 7
unlabelled 2.5e-06
c{x="y"} 2.5e-06
bad{deque="x"} x
bad{deque="unterminated} 1
`)
	if len(sc) != 4 {
		t.Fatalf("parsed %d samples, want 4: %v", len(sc), sc)
	}
	if v, ok := sc.sum("a_total", "deque", "a", "counter", "pushes"); !ok || v != 10 {
		t.Fatalf("pushes = %v (found %v), want 10", v, ok)
	}
	if v, _ := sc.sum("a_total", "deque", "a"); v != 13 {
		t.Fatalf("sum over counters = %v, want 13", v)
	}
	if v, ok := sc.sum("b_seconds_bucket", "sched", `b "q", x`, "le", "+Inf"); !ok || v != 7 {
		t.Fatalf("escaped label value: %v (found %v), want 7", v, ok)
	}
	if v, ok := sc.sum("c"); !ok || v != 2.5e-06 {
		t.Fatalf("unlabelled sample: %v (found %v)", v, ok)
	}
	if _, ok := sc.sum("a_total", "deque", "missing"); ok {
		t.Fatal("sum matched a missing label value")
	}
	if got := sc.labelValues("a_total", "counter"); strings.Join(got, ",") != "pops,pushes" {
		t.Fatalf("labelValues = %v", got)
	}
}

func TestRate(t *testing.T) {
	if got := rate(150, 100, time.Second); got != "50" {
		t.Fatalf("rate = %q, want 50", got)
	}
	if got := rate(100, 0, 0); got != "-" {
		t.Fatalf("rate with no previous frame = %q, want -", got)
	}
	if got := rate(10, 100, time.Second); got != "-" {
		t.Fatalf("rate across counter reset = %q, want -", got)
	}
}

// TestRenderLive drives the full pipeline against a real registry: a
// latency-enabled deque and scheduler sink registered with the exporter,
// served over httptest, fetched and rendered like a -once frame.
func TestRenderLive(t *testing.T) {
	sink := telemetry.NewSink().EnableLatency()
	sink.OpTimed(telemetry.Right, telemetry.Pushes, 0, 1) // huge elapsed: lands in a high bucket
	sink.OpTimed(telemetry.Left, telemetry.Pops, 3, 1)
	unDeque := telemetry.Register("topdeque", sink, nil, nil)
	defer unDeque()

	ss := telemetry.NewSchedSink(2).EnableLatency()
	ss.Inc(0, telemetry.SchedRuns)
	ss.Latency(0, telemetry.SchedSubmitRun, 12345)
	unSched := telemetry.RegisterSched("topsched", ss)
	defer unSched()

	srv := httptest.NewServer(deque.PrometheusHandler())
	defer srv.Close()

	cur, err := fetch(&http.Client{}, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if opsOf(cur, "topdeque", "right") != 1 || cur.count("dcasdeque_sched_events_total", "sched", "topsched", "event", "runs") != 1 {
		t.Fatalf("fetch missed counters: %v", cur)
	}

	prev := parse(`dcasdeque_ops_total{deque="topdeque",end="right",counter="pushes"} 0`)
	var b strings.Builder
	render(&b, cur, prev, time.Second)
	out := b.String()
	for _, want := range []string{
		"DEQUE", "SCHED",
		"topdeque", "topsched",
		"submit_run",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// The latency columns must show real durations, not the "-" absent
	// marker, on the rows that recorded samples.
	var rightRow, schedLatRow string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "topdeque") && strings.Contains(line, "right") {
			rightRow = line
		}
		if strings.Contains(line, "submit_run") {
			schedLatRow = line
		}
	}
	if rightRow == "" || schedLatRow == "" {
		t.Fatalf("rows missing:\n%s", out)
	}
	if !strings.Contains(rightRow, "s") || strings.Count(rightRow, " -") > 1 {
		// The op histogram recorded; only the spin column may be absent.
		t.Errorf("right row lost its latency quantiles: %q", rightRow)
	}
	// One 12345 ns sample: every quantile is clamped to it, and the
	// seconds-valued gauge must round-trip to the exact nanosecond.
	if strings.Count(schedLatRow, "12.35µs") != 3 {
		t.Errorf("sched latency row lost its quantiles: %q", schedLatRow)
	}

	// The left end retried: its spin column carries a duration.
	var leftRow string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "topdeque") && strings.Contains(line, "left") {
			leftRow = line
		}
	}
	fields := strings.Fields(leftRow)
	if len(fields) != 9 {
		t.Fatalf("left row has %d fields: %q", len(fields), leftRow)
	}
	if fields[len(fields)-1] == "-" {
		t.Errorf("left spin-p99 absent despite retries: %q", leftRow)
	}
}

// TestRenderEmpty: an endpoint with no registrations renders the empty
// notice rather than a bare header.
func TestRenderEmpty(t *testing.T) {
	var b strings.Builder
	render(&b, nil, nil, time.Second)
	if !strings.Contains(b.String(), "no registered deques or schedulers") {
		t.Fatalf("empty frame:\n%s", b.String())
	}
}
