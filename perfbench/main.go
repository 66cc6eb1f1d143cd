// Command perfbench is the repository's benchmark: one command that
// runs a workload against the public APIs of deque, sched and serve on
// every core of the machine, checks every output for correctness, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds it from
// the checkout:
//
//	bash perfbench/run.sh --workload deque-array --seed 1 --seconds 12 --trace 0
//
// An untraced run (-trace 0) measures the end-to-end metrics with no
// instrumentation beyond the clock reads that define them.  A traced
// run (-trace 1) measures half its time untraced and half with the
// program's counters switched on and the benchmark's spans recorded
// around every call into a layer; the per-layer metrics come from the
// traced half and the gap between the halves is reported as the tracing
// overhead.  Spans stay in memory and are written to -spans-dir when the
// run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// runConfig is everything a workload receives: the generated inputs
// come from seed, never from anywhere else.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// fault, when non-empty, names a correctness check whose input the
	// workload corrupts before checking it.  Only the self-test sets it.
	fault string
}

// window is the measured duration of one phase.
func (c runConfig) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int64
	violations        []string
	e2e               endToEnd
	// named are the workload's own end-to-end figures under the names
	// users know them by (array_mops, req_per_s...), printed for reading.
	named  []namedValue
	config map[string]any
	layers map[string]float64 // traced runs only
	notes  []string           // printed lines: coverage breakdowns etc.
}

type endToEnd struct {
	setup     []time.Duration
	opsPerSec float64
	latencyUs []float64 // one sample per completed op, tree or chunk of ops
	goodput   float64   // completed-and-correct / attempted
}

type namedValue struct {
	name  string
	value float64
	unit  string
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// workloads maps each -workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"deque-array":    func(c runConfig) (*outcome, error) { return runDeque(c, arrayKind) },
	"deque-list":     func(c runConfig) (*outcome, error) { return runDeque(c, listKind) },
	"sched-fib":      runSchedFib,
	"serve-echo":     runServeEcho,
	"serve-overload": runServeOverload,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	spansDir := fs.String("spans-dir", "", "directory traced runs write their spans to (empty = do not write)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}

	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", *name, *seed, *seconds, *trace)
	env := stampEnv()
	printJSONLine(stdout, "env", env)

	tracer.reset()
	out, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	printJSONLine(stdout, "config", out.config)
	for _, n := range out.named {
		fmt.Fprintf(stdout, "%s %.6g %s\n", n.name, n.value, n.unit)
	}
	for _, line := range out.notes {
		fmt.Fprintln(stdout, line)
	}
	for _, v := range out.violations {
		fmt.Fprintf(stderr, "perfbench: correctness violation: %s\n", v)
	}

	metrics, err := reportMetrics(cfg, out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if !cfg.trace {
		printTail(stdout, out.e2e.latencyUs)
	}
	if cfg.trace && *spansDir != "" {
		path, err := tracer.writeTo(*spansDir, fmt.Sprintf("%s-seed%d.tsv", *name, *seed))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d kept of %d recorded, written to %s\n", tracer.kept(), tracer.recorded(), path)
	}

	correct := len(out.violations) == 0
	failed := out.failed + int64(len(out.violations))
	res := resultOut{Correct: correct, Attempted: out.attempted, Failed: failed, Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// reportMetrics builds the result's metrics: every end-to-end metric on
// an untraced run, every per-layer metric on a traced one.
func reportMetrics(cfg runConfig, out *outcome) (map[string]metricOut, error) {
	m := make(map[string]metricOut)
	if cfg.trace {
		for _, l := range perLayer {
			// A layer not on this workload's path is absent: it reads 0.
			m[l.name] = metricOut{Value: out.layers[l.name], Unit: l.unit}
		}
		return m, nil
	}
	e := out.e2e
	if len(e.setup) == 0 || e.opsPerSec <= 0 {
		return nil, fmt.Errorf("no set-up or throughput measured")
	}
	p50, err := percentile(e.latencyUs, 0.50)
	if err != nil {
		return nil, fmt.Errorf("latency p50: %w", err)
	}
	p90, err := percentile(e.latencyUs, 0.90)
	if err != nil {
		return nil, fmt.Errorf("latency p90: %w", err)
	}
	m["setup_s"] = metricOut{Value: medianDuration(e.setup).Seconds(), Unit: "s"}
	m["ops_per_s"] = metricOut{Value: e.opsPerSec, Unit: "ops/s"}
	m["latency_p50_us"] = metricOut{Value: p50, Unit: "us"}
	m["latency_p90_us"] = metricOut{Value: p90, Unit: "us"}
	m["goodput_ratio"] = metricOut{Value: e.goodput, Unit: "ratio"}
	return m, nil
}

// printTail prints the latency percentiles beyond the gated p90: p99
// and the highest percentile that still has minBeyond samples above it,
// with the sample count.  They are printed for reading, not gated: on a
// 2-vCPU host they vary too much from run to run to bound a change.
func printTail(w io.Writer, samples []float64) {
	n := len(samples)
	if p99, err := percentile(samples, 0.99); err == nil {
		fmt.Fprintf(w, "latency_p99_us %.6g us (%d samples)\n", p99, n)
	}
	q := 1 - float64(minBeyond)/float64(n)
	if v, err := percentile(samples, q); err == nil {
		fmt.Fprintf(w, "latency_max_supported_us %.6g us at quantile %.6f (%d samples)\n", v, q, n)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printJSONLine(w io.Writer, label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "%s %s\n", label, b)
}
