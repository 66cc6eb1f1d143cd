package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

const shortSeconds = 0.6

// Every workload runs clean on a short window, untraced and traced.
func TestWorkloadsShort(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			tracer.reset()
			out, err := workloads[name](runConfig{seed: 7, seconds: shortSeconds, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(out.violations) > 0 || out.failed > 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d violations %v", name, trace, out.attempted, out.failed, out.violations)
			}
			if trace && len(out.layers) == 0 {
				t.Errorf("%s: traced run reported no per-layer metrics", name)
			}
		}
	}
}

// Each correctness check rejects a run whose output was corrupted.
func TestChecksRejectCorruptedResults(t *testing.T) {
	cases := []struct{ workload, fault string }{
		{"deque-array", "deque-duplicate"},
		{"deque-list", "deque-duplicate"},
		{"sched-fib", "fib-count"},
		{"serve-echo", "echo-payload"},
		{"serve-echo", "serve-conserved"},
		{"serve-overload", "spin-result"},
		{"serve-overload", "serve-conserved"},
	}
	for _, c := range cases {
		tracer.reset()
		out, err := workloads[c.workload](runConfig{seed: 3, seconds: shortSeconds, fault: c.fault})
		if err != nil {
			t.Fatalf("%s/%s: %v", c.workload, c.fault, err)
		}
		if len(out.violations) == 0 {
			t.Errorf("%s: corrupting %s went undetected", c.workload, c.fault)
		}
	}
}

func TestCheckFunctions(t *testing.T) {
	for n, want := range []uint64{1, 1, 3, 5, 9, 15, 25} {
		if got := fibTasks(n); got != want {
			t.Errorf("fibTasks(%d) = %d, want %d", n, got, want)
		}
	}
	var a, b multiset
	for v := uint64(0); v < 100; v++ {
		a.add(v)
		b.add(99 - v)
	}
	if err := checkExactlyOnce(a, b); err != nil {
		t.Errorf("equal multisets rejected: %v", err)
	}
	b.add(5)
	if checkExactlyOnce(a, b) == nil {
		t.Error("duplicated value accepted")
	}
	c := a
	c.a++
	if checkExactlyOnce(a, c) == nil {
		t.Error("altered fingerprint accepted")
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if v, err := percentile(s, 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(s[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples (9 beyond) accepted")
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// BENCHMARK.json names exactly the workloads and per-layer metrics the
// program has.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		if got := bf.PerLayer[i]; got.Name != l.name || got.Unit != l.unit || got.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, got, l)
		}
	}
}

// The last line of a run is the result object, with every metric
// BENCHMARK.json lists for that kind of run, in its unit.
func TestRunPrintsResultLine(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", "serve-echo", "-seed", "2", "-seconds", "1", "-trace", trace}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		var keys []string
		for k := range res {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
			t.Errorf("result keys %v", keys)
		}
		var metrics map[string]metricOut
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := bf.EndToEnd
		if trace == "1" {
			want = bf.PerLayer
		}
		if len(metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json lists %d", trace, len(metrics), len(want))
		}
		for _, m := range want {
			got, ok := metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
			}
			if trace == "0" && got.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "bogus"},
		{"-workload", "serve-echo", "-seconds", "0"},
		{"-workload", "serve-echo", "-trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
