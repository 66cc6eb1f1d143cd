package telemetry

import (
	"math"
	"math/bits"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dcasdeque/internal/arena"
	"dcasdeque/internal/metrics"
)

// scrape serves one /metrics request through PrometheusHandler.
func scrape(t *testing.T) string {
	t.Helper()
	rec := httptest.NewRecorder()
	PrometheusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type %q", ct)
	}
	return rec.Body.String()
}

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseSamples parses every `name{labels} value` line of an exposition,
// failing the test on any line that is neither a sample nor a comment.
func parseSamples(t *testing.T, body string) []promSample {
	t.Helper()
	var out []promSample
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, val, ok := strings.Cut(line, " ")
		name, rest, ok2 := strings.Cut(series, "{")
		if !ok || !ok2 || !strings.HasSuffix(rest, "}") {
			t.Fatalf("malformed sample line %q", line)
		}
		s := promSample{name: name, labels: map[string]string{}}
		var err error
		rest = strings.TrimSuffix(rest, "}")
		for rest != "" {
			k, r, _ := strings.Cut(rest, "=")
			var q string
			q, err = strconv.QuotedPrefix(r)
			if err != nil {
				t.Fatalf("label value in %q: %v", line, err)
			}
			s.labels[k], _ = strconv.Unquote(q)
			rest = strings.TrimPrefix(r[len(q):], ",")
		}
		if s.value, err = strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("value in %q: %v", line, err)
		}
		out = append(out, s)
	}
	return out
}

// sumOf sums the samples named name whose labels include every pair in
// match, and reports how many matched.
func sumOf(samples []promSample, name string, match map[string]string) (float64, int) {
	var sum float64
	n := 0
next:
	for _, s := range samples {
		if s.name != name {
			continue
		}
		for k, v := range match {
			if s.labels[k] != v {
				continue next
			}
		}
		sum += s.value
		n++
	}
	return sum, n
}

func TestWritePrometheus(t *testing.T) {
	sink := NewSink().EnableLatency()
	sink.OpTimed(Right, Pushes, 0, metrics.Nanotime()-1000)
	sink.OpTimed(Right, Pops, 2, metrics.Nanotime()-5000)
	unDeque := Register("test_prom_deque", sink, nil, nil)
	defer unDeque()

	ss := NewSchedSink(2).EnableLatency()
	ss.Inc(0, SchedRuns)
	ss.Latency(0, SchedSubmitRun, 1500)
	unSched := RegisterSched("test_prom_sched", ss)
	defer unSched()

	var b strings.Builder
	WritePrometheus(&b)
	body := b.String()
	for _, want := range []string{
		"# TYPE dcasdeque_ops_total counter",
		`dcasdeque_ops_total{deque="test_prom_deque",end="right",counter="pushes"} 1`,
		`dcasdeque_ops_total{deque="test_prom_deque",end="right",counter="retries"} 2`,
		"# TYPE dcasdeque_op_latency_seconds histogram",
		`dcasdeque_op_latency_seconds_count{deque="test_prom_deque",end="right"} 2`,
		`dcasdeque_op_spin_latency_seconds_count{deque="test_prom_deque",end="right"} 1`,
		`dcasdeque_op_latency_quantile_seconds{deque="test_prom_deque",end="right",quantile="0.99"}`,
		`dcasdeque_op_spin_latency_quantile_seconds{deque="test_prom_deque",end="right",quantile="0.99"}`,
		`dcasdeque_sched_events_total{sched="test_prom_sched",worker="0",event="runs"} 1`,
		`dcasdeque_sched_latency_seconds_count{sched="test_prom_sched",kind="submit_run"} 1`,
		`dcasdeque_sched_latency_seconds_bucket{sched="test_prom_sched",kind="submit_run",le="+Inf"} 1`,
		`dcasdeque_sched_latency_quantile_seconds{sched="test_prom_sched",kind="submit_run",quantile="0.5"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// TestExpositionLatency checks that every histogram summary (count,
// sum, min, quantiles, max) is exposed for latency-enabled components,
// and that a latency-disabled deque exposes no latency series.
func TestExpositionLatency(t *testing.T) {
	sink := NewSink().EnableLatency()
	sink.OpTimed(Left, Pushes, 1, metrics.Nanotime()-1000)
	unDeque := Register("test_lat_deque", sink, nil, nil)
	defer unDeque()

	ss := NewSchedSink(1).EnableLatency()
	ss.Latency(0, SchedParkWake, 4096)
	unSched := RegisterSched("test_lat_sched", ss)
	defer unSched()

	plain := NewSink()
	plain.Op(Left, Pushes, 0)
	unPlain := Register("test_nolat_deque", plain, nil, nil)
	defer unPlain()

	body := scrape(t)
	for _, want := range []string{
		`dcasdeque_op_latency_seconds_count{deque="test_lat_deque",end="left"} 1`,
		`dcasdeque_op_latency_seconds_sum{deque="test_lat_deque",end="left"} `,
		`dcasdeque_op_latency_quantile_seconds{deque="test_lat_deque",end="left",quantile="0.99"} `,
		`dcasdeque_op_spin_latency_seconds_count{deque="test_lat_deque",end="left"} 1`,
		`dcasdeque_op_latency_seconds_count{deque="test_lat_deque",end="right"} 0`,
		`dcasdeque_sched_latency_seconds_count{sched="test_lat_sched",kind="park_wake"} 1`,
		`dcasdeque_sched_latency_seconds_sum{sched="test_lat_sched",kind="park_wake"} 4.096e-06`,
		`dcasdeque_sched_latency_quantile_seconds{sched="test_lat_sched",kind="park_wake",quantile="0"} 4.096e-06`,
		`dcasdeque_sched_latency_quantile_seconds{sched="test_lat_sched",kind="park_wake",quantile="0.9"} 4.096e-06`,
		`dcasdeque_sched_latency_quantile_seconds{sched="test_lat_sched",kind="park_wake",quantile="1"} 4.096e-06`,
		`dcasdeque_sched_latency_seconds_count{sched="test_lat_sched",kind="submit_run"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, `deque="test_nolat_deque"`) && strings.Contains(line, "latency") {
			t.Fatalf("latency series for latency-disabled deque: %s", line)
		}
	}
}

// TestPrometheusMemLedger checks that every field of every memory
// ledger a deque reports is exposed, under its pool label.
func TestPrometheusMemLedger(t *testing.T) {
	occ := func(base uint64) arena.Occupancy {
		return arena.Occupancy{Allocs: base + 1, Frees: base + 2, Retired: base + 3, Live: int64(base + 4),
			HighWater: int64(base + 5), Slabs: base + 6, SlabBytes: base + 7}
	}
	nodes, lfrc := occ(10), occ(20)
	mem := MemSnapshot{Slots: occ(0), Nodes: &nodes, Lfrc: &lfrc,
		Rings: &RingCounts{Rings: 31, Retired: 32, Cells: 33, Bytes: 34}}
	unregister := Register("test_mem_deque", NewSink(), nil, func() MemSnapshot { return mem })
	defer unregister()

	samples := parseSamples(t, scrape(t))
	for pool, base := range map[string]float64{"slots": 0, "nodes": 10, "lfrc": 20} {
		for i, ev := range []string{"allocs", "frees", "retired"} {
			v, n := sumOf(samples, "dcasdeque_mem_events_total",
				map[string]string{"deque": "test_mem_deque", "pool": pool, "event": ev})
			if n != 1 || v != base+float64(i+1) {
				t.Errorf("%s %s: %v over %d series, want %v", pool, ev, v, n, base+float64(i+1))
			}
		}
		for i, f := range []string{"live", "high_water", "slabs", "slab_bytes"} {
			v, n := sumOf(samples, "dcasdeque_mem_occupancy",
				map[string]string{"deque": "test_mem_deque", "pool": pool, "field": f})
			if n != 1 || v != base+float64(i+4) {
				t.Errorf("%s %s: %v over %d series, want %v", pool, f, v, n, base+float64(i+4))
			}
		}
	}
	for _, c := range []struct {
		name, label, key string
		want             float64
	}{
		{"dcasdeque_mem_events_total", "event", "allocs", 31},
		{"dcasdeque_mem_events_total", "event", "retired", 32},
		{"dcasdeque_mem_occupancy", "field", "cells", 33},
		{"dcasdeque_mem_occupancy", "field", "bytes", 34},
	} {
		v, n := sumOf(samples, c.name, map[string]string{"deque": "test_mem_deque", "pool": "rings", c.label: c.key})
		if n != 1 || v != c.want {
			t.Errorf("rings %s: %v over %d series, want %v", c.key, v, n, c.want)
		}
	}
	if _, n := sumOf(samples, "dcasdeque_mem_events_total", map[string]string{"deque": "test_mem_deque"}); n != 3*3+2 {
		t.Errorf("%d mem event series, want 11", n)
	}

	// A deque without auxiliary pools exposes only its slots ledger.
	unregister()
	unSlots := Register("test_mem_slots", NewSink(), nil, func() MemSnapshot { return MemSnapshot{Slots: occ(0)} })
	defer unSlots()
	samples = parseSamples(t, scrape(t))
	for _, pool := range []string{"nodes", "lfrc", "rings"} {
		if _, n := sumOf(samples, "dcasdeque_mem_events_total", map[string]string{"deque": "test_mem_slots", "pool": pool}); n != 0 {
			t.Errorf("absent pool %s exposed %d series", pool, n)
		}
	}
}

// TestPrometheusSchedWorkerLabel checks the per-worker scheduler series:
// one bank per worker plus the external bank, summing to the snapshot's
// totals for every counter.
func TestPrometheusSchedWorkerLabel(t *testing.T) {
	s := NewSchedSink(3)
	for w := 0; w < 3; w++ {
		s.Add(w, SchedRuns, uint64(10*(w+1)))
		s.Add(w, SchedParks, uint64(w))
	}
	s.Add(SchedExternal, SchedSubmits, 7)
	s.Inc(SchedExternal, SchedWakes)
	s.Inc(2, SchedWakes)
	unregister := RegisterSched("test_sched_workers", s)
	defer unregister()

	samples := parseSamples(t, scrape(t))
	total := s.Snapshot().Total
	for c := SchedCounter(0); c < NumSchedCounters; c++ {
		v, n := sumOf(samples, "dcasdeque_sched_events_total",
			map[string]string{"sched": "test_sched_workers", "event": c.String()})
		if n != 4 || v != float64(total.get(c)) {
			t.Errorf("%v: sum %v over %d series, want %d over 4", c, v, n, total.get(c))
		}
	}
	for worker, want := range map[string]float64{"0": 10, "1": 20, "2": 30, "external": 0} {
		if v, _ := sumOf(samples, "dcasdeque_sched_events_total",
			map[string]string{"sched": "test_sched_workers", "worker": worker, "event": "runs"}); v != want {
			t.Errorf("worker %s runs = %v, want %v", worker, v, want)
		}
	}
	if v, _ := sumOf(samples, "dcasdeque_sched_events_total",
		map[string]string{"sched": "test_sched_workers", "worker": "external", "event": "submits"}); v != 7 {
		t.Errorf("external submits = %v, want 7", v)
	}
}

// isBucketBound reports whether v ns is the largest value of a
// log-linear bucket: v+1 is a bucket's exclusive upper bound, so at most
// its leading bit and the three below it (the 8 linear sub-buckets) are
// set.  Every value below 16 is such a bound.
func isBucketBound(v uint64) bool {
	hi := v + 1
	if hi < 16 {
		return true
	}
	sh := bits.Len64(hi) - 4
	return hi>>sh<<sh == hi
}

// checkBucketShape asserts the histogram invariants over every
// `_bucket` series of an exposition: cumulative counts non-decreasing
// in `le`, every finite `le` a log-linear bucket's largest value, the
// last finite bucket at most the +Inf bucket, and +Inf equal to _count.
// It returns the number of histograms checked.
func checkBucketShape(t *testing.T, samples []promSample) int {
	t.Helper()
	type hist struct {
		prevLe, prevCum, inf float64
		haveInf              bool
	}
	key := func(s promSample, suffix string) (string, bool) {
		base, ok := strings.CutSuffix(s.name, suffix)
		if !ok {
			return "", false
		}
		var parts []string
		for k, v := range s.labels {
			if k != "le" {
				parts = append(parts, k+"="+v)
			}
		}
		sort.Strings(parts)
		return base + "{" + strings.Join(parts, ",") + "}", true
	}
	hs := map[string]*hist{}
	for _, s := range samples {
		k, ok := key(s, "_bucket")
		if !ok {
			continue
		}
		h := hs[k]
		if h == nil {
			h = &hist{prevLe: -1}
			hs[k] = h
		}
		if s.labels["le"] == "+Inf" {
			if s.value < h.prevCum {
				t.Errorf("%s: +Inf bucket %v below last finite bucket %v", k, s.value, h.prevCum)
			}
			h.inf, h.haveInf = s.value, true
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if err != nil {
			t.Fatalf("%s: le %q: %v", k, s.labels["le"], err)
		}
		if h.haveInf {
			t.Errorf("%s: finite bucket after +Inf", k)
		}
		if le <= h.prevLe || s.value < h.prevCum {
			t.Errorf("%s: bucket le=%v count=%v after le=%v count=%v", k, le, s.value, h.prevLe, h.prevCum)
		}
		if ns := math.Round(le * 1e9); !isBucketBound(uint64(ns)) {
			t.Errorf("%s: le=%v (%v ns) is not a log-linear bucket bound", k, le, ns)
		}
		h.prevLe, h.prevCum = le, s.value
	}
	for _, s := range samples {
		k, ok := key(s, "_count")
		if !ok || hs[k] == nil {
			continue
		}
		if h := hs[k]; !h.haveInf || h.inf != s.value {
			t.Errorf("%s: +Inf bucket %v (present %v) != _count %v", k, h.inf, h.haveInf, s.value)
		}
	}
	return len(hs)
}

// TestPrometheusBucketShape runs the bucket-shape check over a full
// scrape carrying deque, scheduler and serve histograms.
func TestPrometheusBucketShape(t *testing.T) {
	sink := NewSink().EnableLatency()
	now := metrics.Nanotime()
	for i := int64(1); i <= 500; i++ {
		sink.OpTimed(End(i%2), Pushes, uint64(i%3), now-i*37)
	}
	unDeque := Register("test_shape_deque", sink, nil, nil)
	defer unDeque()
	ss := NewSchedSink(2).EnableLatency()
	for i := uint64(1); i <= 300; i++ {
		ss.Latency(int(i%2), SchedLatency(i%uint64(NumSchedLatencies)), i*i*11)
	}
	unSched := RegisterSched("test_shape_sched", ss)
	defer unSched()
	sv := NewServeSink([]string{"a"})
	for i := uint64(1); i <= 200; i++ {
		sv.Stage(ServeStage(i%uint64(NumServeStages)), i*1013)
	}
	unServe := RegisterServe("test_shape_serve", sv)
	defer unServe()

	if n := checkBucketShape(t, parseSamples(t, scrape(t))); n < 4+3+4 {
		t.Fatalf("checked %d histograms, want at least 11", n)
	}
}

// TestPromHistogramCumulative checks the histogram rendering directly
// against the snapshot: one `le` per non-empty bucket at that bucket's
// largest value, counts cumulative, +Inf equal to _count.
func TestPromHistogramCumulative(t *testing.T) {
	h := metrics.NewShardedHistogram(1)
	for i := uint64(1); i <= 10000; i += 7 {
		h.RecordAt(0, i)
	}
	sn := h.Snapshot()
	f := &promFamily{name: "x"}
	promHistogram(f, `l="v"`, sn)
	samples := parseSamples(t, strings.Join(f.samples, "\n"))
	checkBucketShape(t, samples)

	var finite []promSample
	for _, s := range samples {
		if s.name == "x_bucket" && s.labels["le"] != "+Inf" {
			finite = append(finite, s)
		}
	}
	if len(finite) != len(sn.Buckets) {
		t.Fatalf("%d finite buckets, want one per non-empty bucket (%d)", len(finite), len(sn.Buckets))
	}
	var cum uint64
	for i, bk := range sn.Buckets {
		cum += bk.Count
		le, _ := strconv.ParseFloat(finite[i].labels["le"], 64)
		if uint64(math.Round(le*1e9)) != bk.High-1 || finite[i].value != float64(cum) {
			t.Fatalf("bucket %d: le=%v count=%v, want le=%d ns count=%d", i, le, finite[i].value, bk.High-1, cum)
		}
	}
	if cum != sn.N {
		t.Fatalf("last finite bucket %d, want all %d observations bucketed", cum, sn.N)
	}
}
