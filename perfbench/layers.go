package main

// layerMetric is one per-layer metric a traced run reports.
type layerMetric struct {
	name, unit, better string
}

// perLayer lists every per-layer metric, in the order BENCHMARK.json
// lists them.  Which end-to-end metric each should move, and on which
// workload, is in README.md; a workload whose path does not include a
// metric's layer reports it as 0.
var perLayer = []layerMetric{
	{"deque.op_ns.p50", "ns", "lower"},
	{"deque.op_ns.p99", "ns", "lower"},
	{"deque.dcas_per_op", "count", "lower"},
	{"deque.dcas_success_ratio", "ratio", "higher"},
	{"deque.retries_per_op", "count", "lower"},
	{"deque.physical_delete_ratio", "ratio", "higher"},
	{"core.algo_ns", "ns", "lower"},
	{"dcas.default.ns", "ns", "lower"},
	{"dcas.default.contended_ns", "ns", "lower"},
	{"sched.submit_ns", "ns", "lower"},
	{"sched.overhead_share", "ratio", "lower"},
	{"sched.steals_per_ktask", "count", "lower"},
	{"sched.steal_success_ratio", "ratio", "higher"},
	{"sched.stolen_per_steal", "count", "higher"},
	{"sched.run_share_max", "ratio", "lower"},
	{"sched.parks_per_ktask", "count", "lower"},
	{"sched.park_ms_total", "ms", "lower"},
	{"sched.wakes_per_req", "count", "lower"},
	{"sched.parks_per_req", "count", "lower"},
	{"serve.handler_us.p50", "us", "lower"},
	{"serve.handler_us.p99", "us", "lower"},
	{"net.outside_handler_us", "us", "lower"},
	{"serve.stage.ingest_us", "us", "lower"},
	{"serve.stage.submit_us", "us", "lower"},
	{"serve.stage.run_us", "us", "lower"},
	{"serve.stage.respond_us", "us", "lower"},
	{"serve.unattributed_us", "us", "lower"},
	{"serve.span_coverage", "ratio", "higher"},
	{"serve.allocs_per_req", "count", "lower"},
	{"serve.alloc_bytes_per_req", "bytes", "lower"},
	{"serve.reject_us.p50", "us", "lower"},
	{"serve.queue_ms.p50", "ms", "lower"},
	{"serve.queue_ms.p99", "ms", "lower"},
	{"serve.job_cpu_share", "ratio", "higher"},
	{"serve.pump.heavy_share", "ratio", "higher"},
	{"generator.late_us.p99", "us", "lower"},
	{"process.cpu_ns_per_op", "ns", "lower"},
	{"process.cpu_util", "ratio", "higher"},
	{"trace.overhead_share", "ratio", "lower"},
}
