package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"dcasdeque/internal/core/arraydeque"
	"dcasdeque/internal/core/chaselev"
	"dcasdeque/internal/core/listdeque"
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/metrics"
	"dcasdeque/internal/workload"
)

// The contend experiment measures the contention-engineered DCAS substrate
// against the general emulation, on the workload where the substrate
// matters most: a small array deque (capacity 64) hammered from both ends
// by split-end workers, so every operation contends on one of the two end
// indices.
//
// Three configurations of the same array-deque algorithm are compared:
//
//   - engineered: anchored in-word DCAS (dcas.EndLock — three locked
//     read-modify-writes per DCAS) — the array deque's default substrate;
//   - twolock-spin: the general per-location spinlock emulation
//     (dcas.Default()), the baseline;
//   - global-lock: one mutex for all DCAS, the coarse lower bound.
//
// Throughput is the median of several untimed trials; latency quantiles
// and DCAS counters come from one separately instrumented trial so
// that per-operation timing never pollutes the throughput numbers.
const (
	contendCap     = 64
	contendPrefill = 32
	contendTrials  = 7
	contendSeed    = 42
)

// contendVariant is one substrate configuration under test.
type contendVariant struct {
	name     string
	provider string
	mk       func(st *dcas.Stats) *arraydeque.Deque
}

func contendVariants() []contendVariant {
	wrap := func(p dcas.Provider, st *dcas.Stats) dcas.Provider {
		if st == nil {
			return p
		}
		return dcas.Instrumented(p, st)
	}
	return []contendVariant{
		// The engineered cells keep the default packed cell layout: at 1
		// CPU cell striding only grows the cache footprint (there is no
		// cross-core line traffic to avoid), and the end indices already
		// sit on private lines via the struct layout.
		{"engineered", "endlock", func(st *dcas.Stats) *arraydeque.Deque {
			return arraydeque.New(contendCap,
				arraydeque.WithProvider(wrap(new(dcas.EndLock), st)))
		}},
		{"twolock-spin", "twolock", func(st *dcas.Stats) *arraydeque.Deque {
			return arraydeque.New(contendCap,
				arraydeque.WithProvider(wrap(new(dcas.TwoLock), st)))
		}},
		{"global-lock", "global-mutex", func(st *dcas.Stats) *arraydeque.Deque {
			return arraydeque.New(contendCap,
				arraydeque.WithProvider(wrap(new(dcas.GlobalLock), st)))
		}},
	}
}

// contendCell is one (variant, workers) measurement in the JSON report.
// Backend carries the uniform `backend` key shared with the sched
// experiment so JSON consumers can join rows across experiments without
// per-experiment field aliases.
type contendCell struct {
	Backend      string    `json:"backend"`
	Provider     string    `json:"provider"`
	Workers      int       `json:"workers"`
	OpsPerSec    float64   `json:"ops_per_sec"` // median of Trials
	Trials       []float64 `json:"trials_ops_per_sec"`
	P50Ns        uint64    `json:"latency_p50_ns"`
	P99Ns        uint64    `json:"latency_p99_ns"`
	DcasAttempts uint64    `json:"dcas_attempts"`
	DcasFailures uint64    `json:"dcas_failures"`
}

// contendReport is the full machine-readable result written by -json.
type contendReport struct {
	Experiment string `json:"experiment"`
	Command    string `json:"command"`
	Config     struct {
		Capacity     int    `json:"capacity"`
		Prefill      int    `json:"prefill"`
		OpsPerWorker int    `json:"ops_per_worker"`
		PushPct      int    `json:"push_pct"`
		SplitEnds    bool   `json:"split_ends"`
		Trials       int    `json:"trials_per_cell"`
		Seed         uint64 `json:"seed"`
		Baseline     string `json:"baseline"`
	} `json:"config"`
	Env struct {
		GoVersion  string `json:"go_version"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	} `json:"env"`
	Cells   []contendCell `json:"cells"`
	Speedup []struct {
		Workers int     `json:"workers"`
		Speedup float64 `json:"speedup_vs_baseline"`
	} `json:"speedup_vs_baseline"`
	// Steal holds the owner/thief head-to-head: the native single-CAS
	// Chase–Lev deque against the DCAS deques on the work-stealing task
	// tree, the workload shape Chase–Lev exists for.
	Steal []stealCell `json:"steal_cells,omitempty"`
}

// stealCell is one (backend, workers) row of the owner/thief
// head-to-head: workload.RunSteal's task tree, owners pushing and
// popping their own right end, thieves stealing from the left.
type stealCell struct {
	Backend      string    `json:"backend"`
	Workers      int       `json:"workers"`
	Leaves       uint64    `json:"leaves"`
	Steals       uint64    `json:"steals"`
	LeavesPerSec float64   `json:"leaves_per_sec"` // median of Trials
	Trials       []float64 `json:"trials_leaves_per_sec"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// contendThroughput runs one untimed trial and returns ops/sec.
func contendThroughput(d *arraydeque.Deque, workers, ops int, trial uint64) (float64, error) {
	res, err := workload.RunMix(d, workload.MixConfig{
		Workers: workers, OpsPerWorker: ops, PushPct: 50, SplitEnds: true,
		Seed: contendSeed + trial, Prefill: contendPrefill,
	})
	if err != nil {
		return 0, err
	}
	return res.Throughput.PerSecond(), nil
}

// contendLatency runs one instrumented trial with per-worker histograms:
// even workers drive the right end, odd workers the left, alternating push
// and pop so the deque stays near its prefill level.
func contendLatency(d *arraydeque.Deque, workers, ops int) *metrics.Histogram {
	for i := 0; i < contendPrefill; i++ {
		d.PushRight(uint64(i) + 1e9)
	}
	hists := make([]metrics.Histogram, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := &hists[g]
			right := g%2 == 0
			base := uint64(g+1) << 32
			for i := 0; i < ops; i++ {
				start := time.Now()
				switch {
				case right && i%2 == 0:
					d.PushRight(base + uint64(i) + 1)
				case right:
					d.PopRight()
				case i%2 == 0:
					d.PushLeft(base + uint64(i) + 1)
				default:
					d.PopLeft()
				}
				h.RecordSince(start)
			}
		}(g)
	}
	wg.Wait()
	var all metrics.Histogram
	for g := range hists {
		all.Merge(&hists[g])
	}
	return &all
}

// expContend runs the contended both-ends comparison and, with -json,
// writes the machine-readable report.
func expContend(o io, ops int, workers []int) {
	rep := contendReport{Experiment: "contend"}
	rep.Command = fmt.Sprintf("dequebench -exp contend -ops %d -workers %s", ops, *workersFlag)
	rep.Config.Capacity = contendCap
	rep.Config.Prefill = contendPrefill
	rep.Config.OpsPerWorker = ops
	rep.Config.PushPct = 50
	rep.Config.SplitEnds = true
	rep.Config.Trials = contendTrials
	rep.Config.Seed = contendSeed
	rep.Config.Baseline = "twolock-spin"
	rep.Env.GoVersion = runtime.Version()
	rep.Env.GOOS = runtime.GOOS
	rep.Env.GOARCH = runtime.GOARCH
	rep.Env.NumCPU = runtime.NumCPU()
	rep.Env.GOMAXPROCS = runtime.GOMAXPROCS(0)

	t := metrics.NewTable("backend", "workers", "ops/s", "p50(ns)", "p99(ns)", "dcas-failed")
	baseline := map[int]float64{}
	engineered := map[int]float64{}
	for _, w := range workers {
		if w%2 != 0 && w != 1 {
			continue // split-ends needs paired workers
		}
		vs := contendVariants()
		cells := make([]contendCell, len(vs))
		for i, v := range vs {
			cells[i] = contendCell{Backend: v.name, Provider: v.provider, Workers: w}
			// One discarded warmup trial per cell: the first run after a
			// process or cell switch pays scheduler and cache warmup that
			// the steady state does not.
			if _, err := contendThroughput(v.mk(nil), w, ops, 0); err != nil {
				fmt.Fprintln(os.Stderr, "contend:", err)
				os.Exit(1)
			}
		}
		// Trials interleave round-robin across the variants: a machine-wide
		// slow phase then lands on every variant of a round about equally
		// instead of biasing whichever cell it happened to coincide with,
		// which keeps the between-variant ratios stable even when absolute
		// throughput drifts.
		for trial := 0; trial < contendTrials; trial++ {
			for i, v := range vs {
				runtime.GC() // keep collector pauses out of the timed region
				tput, err := contendThroughput(v.mk(nil), w, ops, uint64(trial))
				if err != nil {
					fmt.Fprintln(os.Stderr, "contend:", err)
					os.Exit(1)
				}
				cells[i].Trials = append(cells[i].Trials, tput)
			}
		}
		for i, v := range vs {
			cell := &cells[i]
			cell.OpsPerSec = median(cell.Trials)
			var st dcas.Stats
			h := contendLatency(v.mk(&st), w, ops/4)
			cell.P50Ns = h.Quantile(0.50)
			cell.P99Ns = h.Quantile(0.99)
			cell.DcasAttempts = st.Attempts.Load()
			cell.DcasFailures = st.Failures.Load()
			rep.Cells = append(rep.Cells, *cell)
			switch v.name {
			case "twolock-spin":
				baseline[w] = cell.OpsPerSec
			case "engineered":
				engineered[w] = cell.OpsPerSec
			}
			t.AddRow(v.name, w, cell.OpsPerSec, cell.P50Ns, cell.P99Ns,
				cell.DcasFailures)
		}
		if baseline[w] > 0 {
			rep.Speedup = append(rep.Speedup, struct {
				Workers int     `json:"workers"`
				Speedup float64 `json:"speedup_vs_baseline"`
			}{w, engineered[w] / baseline[w]})
		}
	}
	o.emit("CONTEND: engineered substrate vs general emulation (both ends, cap 64)", t)
	for _, s := range rep.Speedup {
		fmt.Printf("speedup vs %s at %d workers: %.2fx\n",
			rep.Config.Baseline, s.Workers, s.Speedup)
	}
	fmt.Println()
	contendSteal(o, &rep, workers)

	if *jsonFlag != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "contend:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonFlag, data, 0o644); err != nil {
			// A missing artifact must not look like a successful run to a
			// pipeline consuming it.
			fmt.Fprintln(os.Stderr, "contend:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n\n", *jsonFlag)
	}
}

const (
	contendStealDepth = 14      // 16384 leaves per run, as in B4
	contendStealCap   = 1 << 10 // bounded DCAS deques' per-worker capacity
)

// stealBackends are the owner/thief head-to-head contenders: the best
// DCAS array configuration (the engineered substrate), the DCAS list
// deque, and the native single-CAS Chase–Lev deque.
func stealBackends() []struct {
	name string
	mk   func() workload.Deque
} {
	return []struct {
		name string
		mk   func() workload.Deque
	}{
		{"array-engineered", func() workload.Deque {
			return arraydeque.New(contendStealCap)
		}},
		{"list", func() workload.Deque { return listdeque.New() }},
		{"chaselev", func() workload.Deque { return chaselev.New() }},
	}
}

// contendSteal runs the owner/thief head-to-head and appends its cells to
// the report.  RunSteal's access pattern — each worker pushes and pops
// only its own deque's right end, thieves take from the left — is
// exactly the contract Chase–Lev demands, so all three backends run the
// identical workload.
func contendSteal(o io, rep *contendReport, workers []int) {
	t := metrics.NewTable("backend", "workers", "leaves/s", "steals")
	for _, w := range workers {
		bs := stealBackends()
		cells := make([]stealCell, len(bs))
		for i, b := range bs {
			cells[i] = stealCell{Backend: b.name, Workers: w}
			// Discarded warmup trial, as in the mix cells above.
			cfg := workload.StealConfig{Workers: w, Depth: contendStealDepth,
				Capacity: contendStealCap, Seed: contendSeed}
			if _, err := workload.RunSteal(b.mk, cfg); err != nil {
				fmt.Fprintln(os.Stderr, "contend-steal:", err)
				os.Exit(1)
			}
		}
		// Round-robin trials across backends, as everywhere in this file.
		for trial := 0; trial < contendTrials; trial++ {
			for i, b := range bs {
				runtime.GC()
				res, err := workload.RunSteal(b.mk, workload.StealConfig{
					Workers: w, Depth: contendStealDepth,
					Capacity: contendStealCap, Seed: contendSeed + uint64(trial),
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, "contend-steal:", err)
					os.Exit(1)
				}
				cells[i].Leaves = res.Leaves
				cells[i].Steals = res.Steals
				cells[i].Trials = append(cells[i].Trials,
					float64(res.Leaves)/res.Elapsed.Seconds())
			}
		}
		for i := range cells {
			cells[i].LeavesPerSec = median(cells[i].Trials)
			rep.Steal = append(rep.Steal, cells[i])
			t.AddRow(cells[i].Backend, w, cells[i].LeavesPerSec, cells[i].Steals)
		}
	}
	o.emit(fmt.Sprintf("CONTEND-STEAL: owner/thief head-to-head (task tree depth %d)", contendStealDepth), t)
}
