package telemetry

// The exporter: every registered deque, scheduler and server rendered in
// the Prometheus 0.0.4 text exposition format, so a scrape target needs
// nothing beyond net/http.  Counters become *_total families labelled
// by component and end/worker/tenant; the memory ledgers become a
// counter family (allocation events) and a gauge family (occupancy);
// the latency histograms become native Prometheus histograms
// (cumulative `le`-bucketed counts in seconds) plus quantile gauges
// (min, p50, p90, p99, p999, max), so both histogram_quantile over
// buckets and the pre-computed quantiles are available.
//
// Buckets are exposed at the histograms' full resolution: one `le` per
// non-empty log-linear bucket (8 sub-buckets per power of two, so a
// bucket spans at most 12.5% of its value), at the bucket's largest
// value.  Only non-empty buckets are listed, which keeps the series
// count to the value range actually observed: a scrape of
// examples/worksteal -listen (4 workers, 2-vCPU host) after 4 s carried
// 974 `_bucket` series across its 19 histograms (955 finite + 19 +Inf,
// about 50 per histogram) in a scrape of 1290 samples.

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"dcasdeque/internal/arena"
	"dcasdeque/internal/metrics"
)

// PrometheusHandler returns an http.Handler serving every registered
// deque's, scheduler's and server's telemetry in the Prometheus text
// exposition format.  Mount it wherever the scrape config points
// (conventionally /metrics).
func PrometheusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		WritePrometheus(&b)
		_, _ = fmt.Fprint(w, b.String())
	})
}

// promFamily accumulates one metric family's samples so the exposition
// can group them under a single HELP/TYPE header, as the format
// requires.
type promFamily struct {
	name, help, typ string
	samples         []string
}

func (f *promFamily) addf(format string, args ...any) {
	f.samples = append(f.samples, fmt.Sprintf(format, args...))
}

// kv is one sample of a table-rendered family: the value of its last
// label, and the sample value.
type kv struct {
	k string
	v any
}

// addAll renders one sample per kv, each labelled with labels plus
// key=kv.k.
func (f *promFamily) addAll(labels, key string, kvs ...kv) {
	for _, p := range kvs {
		f.addf("%s{%s,%s=%q} %v", f.name, labels, key, p.k, p.v)
	}
}

// WritePrometheus renders the full exposition into b.
func WritePrometheus(b *strings.Builder) {
	all := snapshotAll()
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)

	ops := &promFamily{name: "dcasdeque_ops_total",
		help: "Completed deque operations by end and outcome class.", typ: "counter"}
	ref := &promFamily{name: "dcasdeque_ref_total",
		help: "LFRC reference-count transfer events.", typ: "counter"}
	dcasF := &promFamily{name: "dcasdeque_dcas_total",
		help: "DCAS emulation events (instrumented providers only).", typ: "counter"}
	memEv := &promFamily{name: "dcasdeque_mem_events_total",
		help: "Allocation-ledger events by pool (slots, nodes, lfrc arenas; rings: the Chase-Lev ring chain).", typ: "counter"}
	memOcc := &promFamily{name: "dcasdeque_mem_occupancy",
		help: "Memory occupancy by pool: live and high-water slots, slabs and slab bytes; for rings, active cells and retained bytes.", typ: "gauge"}
	opLat := &promFamily{name: "dcasdeque_op_latency_seconds",
		help: "Deque operation latency by end (entry to linearized return).", typ: "histogram"}
	spinLat := &promFamily{name: "dcasdeque_op_spin_latency_seconds",
		help: "Latency of contended deque operations (>=1 retry) by end.", typ: "histogram"}
	opQ := &promFamily{name: "dcasdeque_op_latency_quantile_seconds",
		help: "Pre-computed deque operation latency quantiles (0 = min, 1 = max).", typ: "gauge"}
	spinQ := &promFamily{name: "dcasdeque_op_spin_latency_quantile_seconds",
		help: "Pre-computed contended-operation latency quantiles (0 = min, 1 = max).", typ: "gauge"}
	schedF := &promFamily{name: "dcasdeque_sched_events_total",
		help: "Scheduler lifecycle events by worker (\"external\" = submitters outside any worker).", typ: "counter"}
	schedLat := &promFamily{name: "dcasdeque_sched_latency_seconds",
		help: "Scheduler task-lifecycle latencies (submit->run, steal->run, park->wake).", typ: "histogram"}
	schedQ := &promFamily{name: "dcasdeque_sched_latency_quantile_seconds",
		help: "Pre-computed scheduler lifecycle latency quantiles (0 = min, 1 = max).", typ: "gauge"}
	serveF := &promFamily{name: "dcasdeque_serve_requests_total",
		help: "Job-service admission outcomes by tenant.", typ: "counter"}
	serveLat := &promFamily{name: "dcasdeque_serve_stage_latency_seconds",
		help: "Job-service request-stage latencies (ingest, submit, run, respond).", typ: "histogram"}
	serveQ := &promFamily{name: "dcasdeque_serve_stage_latency_quantile_seconds",
		help: "Pre-computed job-service stage latency quantiles (0 = min, 1 = max).", typ: "gauge"}

	for _, n := range names {
		e := all[n]
		dq := fmt.Sprintf("deque=%q", n)
		if e.Telemetry != nil {
			for _, end := range [NumEnds]End{Left, Right} {
				oc := e.Telemetry.End(end)
				for c := Counter(0); c < NumCounters; c++ {
					ops.addf("%s{%s,end=%q,counter=%q} %d", ops.name, dq, end.String(), c.String(), oc.get(c))
				}
			}
			r := e.Telemetry.Ref
			ref.addAll(dq, "event", kv{"incs", r.Incs}, kv{"decs", r.Decs}, kv{"frees", r.Frees})
			if l := e.Telemetry.Latency; l != nil {
				for _, end := range [NumEnds]End{Left, Right} {
					el := l.End(end)
					labels := fmt.Sprintf("%s,end=%q", dq, end.String())
					promHistogram(opLat, labels, el.Op)
					promHistogram(spinLat, labels, el.Spin)
					promQuantiles(opQ, labels, el.Op)
					promQuantiles(spinQ, labels, el.Spin)
				}
			}
		}
		if d := e.DCAS; d != nil {
			dcasF.addAll(dq, "event",
				kv{"attempts", d.Attempts}, kv{"failures", d.Failures}, kv{"successes", d.Successes})
		}
		if m := e.Mem; m != nil {
			promArena(memEv, memOcc, dq+`,pool="slots"`, m.Slots)
			if m.Nodes != nil {
				promArena(memEv, memOcc, dq+`,pool="nodes"`, *m.Nodes)
			}
			if m.Lfrc != nil {
				promArena(memEv, memOcc, dq+`,pool="lfrc"`, *m.Lfrc)
			}
			if r := m.Rings; r != nil {
				labels := dq + `,pool="rings"`
				memEv.addAll(labels, "event", kv{"allocs", r.Rings}, kv{"retired", r.Retired})
				memOcc.addAll(labels, "field", kv{"cells", r.Cells}, kv{"bytes", r.Bytes})
			}
		}
		if e.Sched != nil {
			for w, oc := range e.Sched.Workers {
				promSchedCounts(schedF, n, strconv.Itoa(w), oc)
			}
			promSchedCounts(schedF, n, "external", e.Sched.External)
			if l := e.Sched.Latencies; l != nil {
				for k := SchedLatency(0); k < NumSchedLatencies; k++ {
					labels := fmt.Sprintf("sched=%q,kind=%q", n, k.String())
					promHistogram(schedLat, labels, l.Get(k))
					promQuantiles(schedQ, labels, l.Get(k))
				}
			}
		}
		if e.Serve != nil {
			for _, tc := range e.Serve.Tenants {
				for c := ServeCounter(0); c < NumServeCounters; c++ {
					serveF.addf("%s{server=%q,tenant=%q,outcome=%q} %d",
						serveF.name, n, tc.Tenant, c.String(), tc.get(c))
				}
			}
			for st := ServeStage(0); st < NumServeStages; st++ {
				labels := fmt.Sprintf("server=%q,stage=%q", n, st.String())
				promHistogram(serveLat, labels, e.Serve.Stages.Get(st))
				promQuantiles(serveQ, labels, e.Serve.Stages.Get(st))
			}
		}
	}

	for _, f := range []*promFamily{ops, ref, dcasF, memEv, memOcc, opLat, spinLat, opQ, spinQ,
		schedF, schedLat, schedQ, serveF, serveLat, serveQ} {
		if len(f.samples) == 0 {
			continue
		}
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.samples {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
}

// promArena renders one arena ledger: its allocation events as
// counters and its occupancy as gauges.
func promArena(ev, occ *promFamily, labels string, o arena.Occupancy) {
	ev.addAll(labels, "event", kv{"allocs", o.Allocs}, kv{"frees", o.Frees}, kv{"retired", o.Retired})
	occ.addAll(labels, "field", kv{"live", o.Live}, kv{"high_water", o.HighWater},
		kv{"slabs", o.Slabs}, kv{"slab_bytes", o.SlabBytes})
}

// promSchedCounts renders one scheduler bank under its worker label.
func promSchedCounts(f *promFamily, sched, worker string, oc SchedCounts) {
	for c := SchedCounter(0); c < NumSchedCounters; c++ {
		f.addf("%s{sched=%q,worker=%q,event=%q} %d", f.name, sched, worker, c.String(), oc.get(c))
	}
}

// promHistogram renders one snapshot as a Prometheus histogram: one
// cumulative bucket per non-empty log-linear bucket, bounded by the
// bucket's largest value (High-1 ns: `le` is inclusive, High is not)
// in seconds, then +Inf, _sum and _count.
func promHistogram(f *promFamily, labels string, h metrics.HistogramSnapshot) {
	var cum uint64
	for _, bk := range h.Buckets {
		cum += bk.Count
		f.addf("%s_bucket{%s,le=\"%g\"} %d", f.name, labels, float64(bk.High-1)/1e9, cum)
	}
	f.addf("%s_bucket{%s,le=\"+Inf\"} %d", f.name, labels, h.N)
	f.addf("%s_sum{%s} %g", f.name, labels, float64(h.Sum)/1e9)
	f.addf("%s_count{%s} %d", f.name, labels, h.N)
}

// promQuantiles renders the snapshot's min, pre-computed quantiles and
// max as gauges labelled by quantile, in seconds.
func promQuantiles(f *promFamily, labels string, h metrics.HistogramSnapshot) {
	for _, q := range []struct {
		q string
		v uint64
	}{{"0", h.Min}, {"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}, {"0.999", h.P999}, {"1", h.Max}} {
		f.addf("%s{%s,quantile=%q} %g", f.name, labels, q.q, float64(q.v)/1e9)
	}
}
