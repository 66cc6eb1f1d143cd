package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"dcasdeque/internal/core/arraydeque"
	"dcasdeque/internal/core/listdeque"
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/metrics"
	"dcasdeque/internal/telemetry"
	"dcasdeque/internal/workload"
)

// The telem experiment measures what observability costs and shows what
// it buys.  Each implementation runs the same split-ends mix twice: once
// with telemetry disabled (the nil-check configuration every deque ships
// with) and once with the full instrumentation enabled — sharded per-end
// counters plus a DCAS-attributing provider wrapper.  The throughput
// delta is the price; the per-end retry, boundary and attribution
// columns in the emitted JSON are the product.
const (
	telemCap     = 64
	telemPrefill = 32
	telemTrials  = 5
	telemSeed    = 77
)

// telemVariant is one (implementation, telemetry mode) configuration.
type telemVariant struct {
	impl string
	mode string // "off" or "on"
	mk   func() (workload.Deque, *telemetry.Sink, *dcas.AttrStats)
}

func telemVariants() []telemVariant {
	return []telemVariant{
		{"array", "off", func() (workload.Deque, *telemetry.Sink, *dcas.AttrStats) {
			return arraydeque.New(telemCap), nil, nil
		}},
		{"array", "on", func() (workload.Deque, *telemetry.Sink, *dcas.AttrStats) {
			sink, st := telemetry.NewSink(), new(dcas.AttrStats)
			d := arraydeque.New(telemCap,
				arraydeque.WithTelemetry(sink),
				arraydeque.WithProvider(dcas.InstrumentedAttr(new(dcas.EndLock), st)))
			return d, sink, st
		}},
		{"list", "off", func() (workload.Deque, *telemetry.Sink, *dcas.AttrStats) {
			return listdeque.New(), nil, nil
		}},
		{"list", "on", func() (workload.Deque, *telemetry.Sink, *dcas.AttrStats) {
			sink, st := telemetry.NewSink(), new(dcas.AttrStats)
			d := listdeque.New(
				listdeque.WithTelemetry(sink),
				listdeque.WithProvider(dcas.InstrumentedAttr(dcas.Default(), st)))
			return d, sink, st
		}},
	}
}

// telemCell is one (impl, mode, workers) measurement.
type telemCell struct {
	Impl      string    `json:"impl"`
	Mode      string    `json:"telemetry"`
	Workers   int       `json:"workers"`
	OpsPerSec float64   `json:"ops_per_sec"` // median of Trials
	Trials    []float64 `json:"trials_ops_per_sec"`
	// OverheadPct is this on-cell's throughput cost versus its off twin
	// ((off-on)/off·100); 0 for off cells.
	OverheadPct float64 `json:"overhead_pct"`
	// Counters holds the per-end telemetry totals of one instrumented
	// trial; nil for off cells.
	Counters *telemetry.Snapshot `json:"counters,omitempty"`
	// DCAS holds the substrate totals of the same trial; nil for off
	// cells.
	DCAS *dcas.Snapshot `json:"dcas,omitempty"`
	// Locations attribute the DCAS traffic per shared word.
	Locations []dcas.LocStats `json:"locations,omitempty"`
}

// telemReport is the machine-readable result written by -json
// (BENCH_PR4.json in CI).
type telemReport struct {
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
	} `json:"config"`
	Env struct {
		GoVersion  string `json:"go_version"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	} `json:"env"`
	Cells []telemCell `json:"cells"`
}

// telemThroughput runs one trial and returns ops/sec.
func telemThroughput(d workload.Deque, workers, ops int, trial uint64) (float64, error) {
	res, err := workload.RunMix(d, workload.MixConfig{
		Workers: workers, OpsPerWorker: ops, PushPct: 50, SplitEnds: true,
		Seed: telemSeed + trial, Prefill: telemPrefill,
	})
	if err != nil {
		return 0, err
	}
	return res.Throughput.PerSecond(), nil
}

// expTelem measures telemetry overhead and emits the counter columns.
func expTelem(o io, ops int, workers []int) {
	rep := telemReport{Experiment: "telem"}
	rep.Command = fmt.Sprintf("dequebench -exp telem -ops %d -workers %s", ops, *workersFlag)
	rep.Config.Capacity = telemCap
	rep.Config.Prefill = telemPrefill
	rep.Config.OpsPerWorker = ops
	rep.Config.PushPct = 50
	rep.Config.SplitEnds = true
	rep.Config.Trials = telemTrials
	rep.Config.Seed = telemSeed
	rep.Env.GoVersion = runtime.Version()
	rep.Env.GOOS = runtime.GOOS
	rep.Env.GOARCH = runtime.GOARCH
	rep.Env.NumCPU = runtime.NumCPU()
	rep.Env.GOMAXPROCS = runtime.GOMAXPROCS(0)

	t := metrics.NewTable("impl", "telemetry", "workers", "ops/s", "overhead%", "retriesL", "retriesR", "dcas-failed")
	for _, w := range workers {
		if w%2 != 0 && w != 1 {
			continue // split-ends needs paired workers
		}
		vs := telemVariants()
		cells := make([]telemCell, len(vs))
		for i, v := range vs {
			cells[i] = telemCell{Impl: v.impl, Mode: v.mode, Workers: w}
			d, _, _ := v.mk()
			// Discarded warmup trial, as in the contend experiment.
			if _, err := telemThroughput(d, w, ops, 0); err != nil {
				fmt.Fprintln(os.Stderr, "telem:", err)
				os.Exit(1)
			}
		}
		// Round-robin trials across variants so machine-wide drift lands on
		// every cell equally (see expContend).
		for trial := 0; trial < telemTrials; trial++ {
			for i, v := range vs {
				runtime.GC()
				d, _, _ := v.mk()
				tput, err := telemThroughput(d, w, ops, uint64(trial))
				if err != nil {
					fmt.Fprintln(os.Stderr, "telem:", err)
					os.Exit(1)
				}
				cells[i].Trials = append(cells[i].Trials, tput)
			}
		}
		off := map[string]float64{}
		for i, v := range vs {
			cell := &cells[i]
			cell.OpsPerSec = median(cell.Trials)
			if v.mode == "off" {
				off[v.impl] = cell.OpsPerSec
			} else if base := off[v.impl]; base > 0 {
				cell.OverheadPct = (base - cell.OpsPerSec) / base * 100
			}
			if v.mode == "on" {
				// One separately counted trial so the counter columns describe
				// a known workload, not the accumulated trial soup.
				d, sink, st := v.mk()
				if _, err := telemThroughput(d, w, ops, uint64(telemTrials)); err != nil {
					fmt.Fprintln(os.Stderr, "telem:", err)
					os.Exit(1)
				}
				sn := sink.Snapshot()
				dn := st.Snapshot()
				cell.Counters = &sn
				cell.DCAS = &dn
				cell.Locations = st.PerLocation()
			}
			rep.Cells = append(rep.Cells, *cell)
			var rl, rr, df uint64
			if cell.Counters != nil {
				rl, rr = cell.Counters.Left.Retries, cell.Counters.Right.Retries
				df = cell.DCAS.Failures
			}
			t.AddRow(v.impl, v.mode, w, cell.OpsPerSec,
				fmt.Sprintf("%.1f", cell.OverheadPct), rl, rr, df)
		}
	}
	o.emit("TELEM: telemetry cost (off vs on) and what it observes", t)

	if *jsonFlag != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "telem:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonFlag, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "telem:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n\n", *jsonFlag)
	}
}
