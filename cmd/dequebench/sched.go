package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"dcasdeque/internal/metrics"
	"dcasdeque/internal/workload"
	"dcasdeque/sched"
)

// The sched experiment measures the work-stealing scheduler built on the
// deques (package sched) end to end: three workload shapes × the deque
// backends × the -workers counts.  Fib is the ABP fork-join tree (deep
// spawn chains, steals carry subtrees), fanout is injector-heavy
// embarrassing parallelism, and pingpong is respawn chains that stress
// spawn-to-run latency and park/wake churn.  Every workload self-checks
// its exact task count, so each cell is also a conservation check.
//
// With -json this writes the report that CI and make sched-bench commit
// as BENCH_PR6.json.
const (
	schedTrials   = 3
	schedFibN     = 21  // 2·fib(22)−1 = 35421 tasks per run
	schedSpin     = 200 // fanout per-task busy work
	schedChains   = 32
	schedHops     = 512 // 32×512 = 16384 tasks per pingpong run
	schedDequeCap = 8192
)

// schedBackend is one deque implementation the scheduler runs over.
type schedBackend struct {
	name string
	opt  sched.Option
}

func schedBackends() []schedBackend {
	return []schedBackend{
		{"array", sched.WithArrayDeques()},
		{"list", sched.WithListDeques()},
		{"mutex", sched.WithMutexDeques()},
		{"chaselev", sched.WithChaseLev()},
	}
}

// schedWorkload is one workload shape, parameterized only by the
// scheduler it runs on.
type schedWorkload struct {
	name string
	run  func(s *sched.Scheduler) (workload.SchedResult, error)
}

func schedWorkloads(ops int) []schedWorkload {
	// Fanout scales with -ops so the one knob users already have also
	// sizes the submission-heavy shape.
	fanout := ops / 4
	if fanout < 1000 {
		fanout = 1000
	}
	return []schedWorkload{
		{"fib", func(s *sched.Scheduler) (workload.SchedResult, error) {
			return workload.RunSchedFib(s, schedFibN)
		}},
		{"fanout", func(s *sched.Scheduler) (workload.SchedResult, error) {
			return workload.RunSchedFanout(s, fanout, schedSpin)
		}},
		{"pingpong", func(s *sched.Scheduler) (workload.SchedResult, error) {
			return workload.RunSchedPingPong(s, schedChains, schedHops)
		}},
	}
}

// schedCell is one (workload, backend, workers) measurement.
type schedCell struct {
	Workload    string    `json:"workload"`
	Backend     string    `json:"backend"`
	Workers     int       `json:"workers"`
	Tasks       uint64    `json:"tasks"`         // per trial (verified exact)
	TasksPerSec float64   `json:"tasks_per_sec"` // median of Trials
	Trials      []float64 `json:"trials_tasks_per_sec"`
	// Scheduler counters from one separately counted, telemetry-enabled
	// trial (the measured trials run uninstrumented).
	Steals     uint64 `json:"steals"`
	Stolen     uint64 `json:"stolen"`
	StealFails uint64 `json:"steal_fails"`
	Parks      uint64 `json:"parks"`
	Wakes      uint64 `json:"wakes"`
}

// schedReport is the machine-readable result written by -json
// (BENCH_PR6.json in CI).
type schedReport struct {
	Experiment string `json:"experiment"`
	Command    string `json:"command"`
	Config     struct {
		FibN          int `json:"fib_n"`
		FanoutTasks   int `json:"fanout_tasks"`
		FanoutSpin    int `json:"fanout_spin"`
		PingPongChain int `json:"pingpong_chains"`
		PingPongHops  int `json:"pingpong_hops"`
		DequeCapacity int `json:"deque_capacity"`
		Trials        int `json:"trials_per_cell"`
	} `json:"config"`
	Env struct {
		GoVersion  string `json:"go_version"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	} `json:"env"`
	Cells []schedCell `json:"cells"`
}

// schedTrial runs one workload on a fresh scheduler and returns the
// result plus the drained scheduler's stats (zero unless telemetry).
func schedTrial(wl schedWorkload, b schedBackend, workers int, opts ...sched.Option) (workload.SchedResult, sched.Stats, error) {
	s := sched.New(append([]sched.Option{
		sched.WithWorkers(workers), b.opt, sched.WithDequeCapacity(schedDequeCap),
	}, opts...)...)
	res, err := wl.run(s)
	st, _ := s.Stats()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if serr := s.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	return res, st, err
}

// expSched measures scheduler throughput across workloads, backends and
// worker counts.
func expSched(o io, ops int, workers []int) {
	rep := schedReport{Experiment: "sched"}
	rep.Command = fmt.Sprintf("dequebench -exp sched -ops %d -workers %s", ops, *workersFlag)
	wls := schedWorkloads(ops)
	rep.Config.FibN = schedFibN
	rep.Config.FanoutTasks = ops / 4
	if rep.Config.FanoutTasks < 1000 {
		rep.Config.FanoutTasks = 1000
	}
	rep.Config.FanoutSpin = schedSpin
	rep.Config.PingPongChain = schedChains
	rep.Config.PingPongHops = schedHops
	rep.Config.DequeCapacity = schedDequeCap
	rep.Config.Trials = schedTrials
	rep.Env.GoVersion = runtime.Version()
	rep.Env.GOOS = runtime.GOOS
	rep.Env.GOARCH = runtime.GOARCH
	rep.Env.NumCPU = runtime.NumCPU()
	rep.Env.GOMAXPROCS = runtime.GOMAXPROCS(0)

	t := metrics.NewTable("workload", "backend", "workers", "tasks/s", "steals", "stolen", "parks")
	for _, wl := range wls {
		for _, w := range workers {
			bs := schedBackends()
			cells := make([]schedCell, len(bs))
			for i, b := range bs {
				cells[i] = schedCell{Workload: wl.name, Backend: b.name, Workers: w}
				// Discarded warmup trial, as in the contend experiment.
				if _, _, err := schedTrial(wl, b, w); err != nil {
					fmt.Fprintln(os.Stderr, "sched:", err)
					os.Exit(1)
				}
			}
			// Round-robin trials across backends so machine-wide drift lands
			// on every cell equally (see expContend).
			for trial := 0; trial < schedTrials; trial++ {
				for i, b := range bs {
					runtime.GC()
					res, _, err := schedTrial(wl, b, w)
					if err != nil {
						fmt.Fprintln(os.Stderr, "sched:", err)
						os.Exit(1)
					}
					cells[i].Tasks = res.Tasks
					cells[i].Trials = append(cells[i].Trials, res.PerSec())
				}
			}
			for i, b := range bs {
				cell := &cells[i]
				cell.TasksPerSec = median(cell.Trials)
				// One separately counted trial so the counter columns describe
				// a known workload, not the accumulated trial soup.
				_, st, err := schedTrial(wl, b, w, sched.WithTelemetry())
				if err != nil {
					fmt.Fprintln(os.Stderr, "sched:", err)
					os.Exit(1)
				}
				cell.Steals = st.Total.Steals
				cell.Stolen = st.Total.Stolen
				cell.StealFails = st.Total.StealFails
				cell.Parks = st.Total.Parks
				cell.Wakes = st.Total.Wakes
				rep.Cells = append(rep.Cells, *cell)
				t.AddRow(wl.name, b.name, w, cell.TasksPerSec,
					cell.Steals, cell.Stolen, cell.Parks)
			}
		}
	}
	o.emit("SCHED: work-stealing scheduler throughput (fib / fanout / pingpong)", t)

	if *jsonFlag != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "sched:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonFlag, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "sched:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n\n", *jsonFlag)
	}
}
