// Worksteal: the application that motivates the paper ("deques ...
// currently used in load balancing algorithms [4]", after Arora, Blumofe
// and Plaxton) — now a thin demo of package sched, the work-stealing
// executor built on the DCAS deques.
//
// Each worker owns a deque of tasks: the owner treats its own deque as a
// LIFO stack on the right end (good locality: the most recently spawned —
// smallest, hottest — task runs first) while idle workers steal batches
// from the left end of a victim's deque (taking the oldest — largest —
// tasks, minimizing steal frequency).  Unlike the specialized ABP deque,
// the DCAS deque permits this with no owner restrictions.  All of that
// machinery — victim selection, batched stealing, spin/yield/park — lives
// in package sched; this example only submits work and reads counters.
//
// The computation is a parallel recursive sum over a synthetic binary
// tree; the result is checked against the closed form.
//
// The scheduler and each worker deque run with telemetry enabled and
// registered with the process-wide exporter, so the run doubles as an
// end-to-end smoke test of the observability layer: on exit it prints the
// scheduler's per-worker counters, each deque's per-end counters (steals
// show up as left-end pops on the victim's deque), and probes the HTTP
// exporter for the same numbers.
//
// Run with: go run ./examples/worksteal [-workers 4] [-depth 18]
//
// With -listen the example becomes a live observability target: it
// serves the Prometheus exposition at /metrics (poll it with dequetop)
// and net/http/pprof under /debug/pprof, then re-runs the tree sum
// forever so the counters and latency histograms keep moving:
//
//	go run ./examples/worksteal -listen :8080 &
//	go run ./cmd/dequetop -url http://localhost:8080/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dcasdeque/deque"
	"dcasdeque/sched"
	"dcasdeque/serve"
)

var (
	workersFlag = flag.Int("workers", 4, "number of workers")
	depthFlag   = flag.Int("depth", 18, "task-tree depth (2^depth leaves)")
	listenFlag  = flag.String("listen", "", "serve /metrics and /debug/pprof on this address and loop the workload (e.g. :8080)")
)

var sum atomic.Uint64 // Σ leaf values

func main() {
	flag.Parse()
	nWorkers := *workersFlag
	depth := *depthFlag

	// One telemetry-named deque per worker, kept aside so the per-end
	// counters can be printed after the run.  Capacity is comfortable: a
	// worker's own stack depth is at most the tree depth, plus stolen
	// surplus; overflow falls back to the injector and inline execution.
	deques := make([]*deque.Array[sched.Task], nWorkers)
	s := sched.New(
		sched.WithWorkers(nWorkers),
		sched.WithDeques(func(id int) deque.Deque[sched.Task] {
			d := deque.NewArray[sched.Task](1024,
				deque.WithTelemetryName(fmt.Sprintf("worker%d", id)),
				deque.WithLatency())
			deques[id] = d
			return d
		}),
		sched.WithTelemetryName("worksteal"),
		sched.WithLatency(),
		sched.WithTracing(),
	)

	if *listenFlag != "" {
		serveLoop(s, *listenFlag, depth)
		return // unreachable: serve loops forever
	}

	// sumTree sums the subtree rooted at node with the given remaining
	// depth; leafValue(n) = n.
	var wg sync.WaitGroup
	var sumTree func(node uint64, depth int) sched.Task
	sumTree = func(node uint64, depth int) sched.Task {
		return func(w *sched.Worker) {
			defer wg.Done()
			if depth == 0 {
				sum.Add(node)
				return
			}
			wg.Add(2)
			w.Spawn(sumTree(2*node, depth-1))
			w.Spawn(sumTree(2*node+1, depth-1))
		}
	}

	start := time.Now()
	wg.Add(1)
	if err := s.Submit(sumTree(1, depth)); err != nil {
		log.Fatal(err)
	}
	wg.Wait()
	elapsed := time.Since(start)

	leaves := uint64(1) << uint(depth)
	tasks := 2*leaves - 1
	// Leaves occupy node indices [2^depth, 2^(depth+1)); leafValue(n) = n,
	// so the expected sum is the arithmetic series over that range:
	// leaves·(3·leaves−1)/2.
	want := leaves * (3*leaves - 1) / 2
	fmt.Printf("workers=%d depth=%d leaves=%d\n", nWorkers, depth, leaves)
	fmt.Printf("sum=%d (expected %d, %s)\n", sum.Load(), want, okStr(sum.Load() == want))
	if sum.Load() != want {
		log.Fatal("result mismatch")
	}

	st, ok := s.Stats()
	if !ok {
		log.Fatal("telemetry not enabled") // WithTelemetryName above enables it
	}
	fmt.Printf("tasks=%d (scheduler ran %d, %s) elapsed=%v (%.0f tasks/s)\n",
		tasks, st.Total.Runs, okStr(st.Total.Runs == tasks),
		elapsed.Round(time.Millisecond), float64(tasks)/elapsed.Seconds())
	if st.Total.Runs != tasks {
		log.Fatal("task-count mismatch")
	}
	printTelemetry(st, deques)

	// The exporter probe must precede Shutdown: draining unregisters the
	// scheduler's entry.
	probeExporter(st, deques)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
}

// printTelemetry reports the scheduler's per-worker counters next to each
// worker deque's per-end counters.  Owners work the right end and thieves
// the left, so a deque's Left.Pops is the number of times it was stolen
// from.
func printTelemetry(st sched.Stats, deques []*deque.Array[sched.Task]) {
	fmt.Println("\ntelemetry (right = owner end, left = thief end):")
	fmt.Printf("%-10s %10s %8s %8s %8s %10s %10s %10s %12s\n",
		"worker", "runs", "steals", "stolen", "parks", "pushesR", "popsR", "stolenL", "dcas-failed")
	var stolen uint64
	for i, d := range deques {
		ds, ok := d.Stats()
		if !ok {
			log.Fatal("deque telemetry not enabled")
		}
		w := st.Workers[i]
		fmt.Printf("worker%-4d %10d %8d %8d %8d %10d %10d %10d %12d\n", i,
			w.Runs, w.Steals, w.Stolen, w.Parks,
			ds.Right.Pushes, ds.Right.Pops, ds.Left.Pops, ds.DCAS.Failures)
		stolen += ds.Left.Pops
	}
	fmt.Printf("total: runs=%d spawns=%d steals=%d stolen=%d (deque-observed %d) parks=%d wakes=%d\n",
		st.Total.Runs, st.Total.Spawns, st.Total.Steals, st.Total.Stolen,
		stolen, st.Total.Parks, st.Total.Wakes)
}

// probeExporter checks that both the scheduler's counters and the worker
// deques' counters are visible through the /metrics exposition with the
// same totals the snapshots reported.  The scheduler total is the sum
// of its per-worker series.
func probeExporter(st sched.Stats, deques []*deque.Array[sched.Task]) {
	rr := httptest.NewRecorder()
	deque.PrometheusHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	var runs uint64
	series := 0
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		series++
		if strings.HasPrefix(line, `dcasdeque_sched_events_total{sched="worksteal",`) &&
			strings.Contains(line, `,event="runs"} `) {
			v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				log.Fatalf("exporter: %q: %v", line, err)
			}
			runs += v
		}
	}
	if runs != st.Total.Runs {
		log.Fatalf("exporter: worksteal runs sum to %d over workers, snapshot says %d", runs, st.Total.Runs)
	}
	fmt.Printf("exporter: worksteal runs = %d (sum over worker series) verified\n", runs)
	ds, _ := deques[0].Stats()
	wantLine := fmt.Sprintf(`dcasdeque_ops_total{deque="worker0",end="right",counter="pushes"} %d`, ds.Right.Pushes)
	if !strings.Contains(body, wantLine) {
		log.Fatalf("exporter missing %q in:\n%s", wantLine, body)
	}
	fmt.Printf("exporter: %q verified\n", wantLine)
	fmt.Printf("exporter: %d series served\n", series)
}

func okStr(ok bool) string {
	if ok {
		return "OK"
	}
	return "MISMATCH"
}

// serveLoop mounts the observability endpoints and re-runs the tree sum
// forever, so a dashboard pointed at the process sees live counters and
// latency quantiles.  The endpoint wiring (/metrics, /debug/pprof) is
// the shared serve.ExpositionMux — the same surface dequeserve mounts.
func serveLoop(s *sched.Scheduler, addr string, depth int) {
	go func() {
		log.Printf("serving /metrics, /debug/pprof on %s", addr)
		log.Fatal(http.ListenAndServe(addr, serve.ExpositionMux()))
	}()
	for round := uint64(1); ; round++ {
		var wg sync.WaitGroup
		var sumTree func(node uint64, depth int) sched.Task
		sumTree = func(node uint64, depth int) sched.Task {
			return func(w *sched.Worker) {
				defer wg.Done()
				if depth == 0 {
					sum.Add(node)
					return
				}
				wg.Add(2)
				w.Spawn(sumTree(2*node, depth-1))
				w.Spawn(sumTree(2*node+1, depth-1))
			}
		}
		wg.Add(1)
		if err := s.Submit(sumTree(1, depth)); err != nil {
			log.Fatal(err)
		}
		wg.Wait()
		if round%10 == 0 {
			if st, ok := s.Stats(); ok {
				log.Printf("round %d: runs=%d steals=%d", round, st.Total.Runs, st.Total.Steals)
			}
		}
		time.Sleep(100 * time.Millisecond) // let parks happen between rounds
	}
}
