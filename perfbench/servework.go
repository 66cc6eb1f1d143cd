package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dcasdeque/sched"
	"dcasdeque/serve"
)

// The serve workloads.  serve-echo drives serve.New() with its defaults
// over loopback HTTP the way cmd/dequeserve mounts it, closed loop, with
// echo jobs that do no work: the per-request cost of net/http, the
// handler, admission, the pump and sched is the whole number.
// serve-overload calls Server.ServeHTTP in-process on a fixed schedule
// at about twice the server's capacity with CPU-bound spin jobs from two
// tenants, driving admission, the 429 path and the pump under
// saturation.

const (
	serveSetups   = 5
	serveInterval = 100 * time.Millisecond

	// Four connections keep both cores busy, so req/s measures the CPU
	// each request costs; with two, the cores idle between replies and
	// the number follows how fast the host wakes an idle vCPU, which
	// varied by tens of percent from run to run on a 2-vCPU VM.
	echoClients     = 4
	echoWarm        = 100 // requests per client, part of set-up
	echoPayloads    = 64
	echoPayloadSize = 32

	// overloadRate is the offered load: about 2.3x the saturated goodput
	// of the default two-worker server on this job mix (spin jobs of
	// about spinN rounds), measured at 4370 rps on a 2-vCPU x86 VM.  The
	// same VM ran up to 1.5x slower at other times, and at 5000 rps
	// (1.15x in its fast state) the weight-3 tenant dropped out of
	// backlog and the latency median moved by 22% between runs.  At
	// 10000 rps both tenants stay backlogged in either state.
	overloadRate    = 10000
	overloadQueue   = 32 // per-tenant queue depth: the 429 threshold
	overloadInject  = 8  // sched injector capacity
	overloadWarm    = 20 // requests per warm-up goroutine, part of set-up
	overloadSpinN   = 200_000
	overloadSpinVar = 16 // distinct spin sizes, within ±5% of spinN
)

var overloadTenants = []serve.TenantConfig{
	{Name: "heavy", Weight: 3, QueueCap: overloadQueue},
	{Name: "light", Weight: 1, QueueCap: overloadQueue},
}

func shutdownServer(s *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

func serveConfig(s *serve.Server) map[string]any {
	return resolved(s, map[string]string{
		"tenant_queue":      "tenants.0.queue",
		"tenant_queue_dcas": "tenants.0.queue.core.prov",
		"queue_capacity":    "cfg.queueCap",
		"workers":           "sched.cfg.workers",
		"worker_deque":      "sched.workers.0.dq",
		"injector":          "sched.injector",
		"injector_dcas":     "sched.injector.core.prov",
		"injector_capacity": "sched.cfg.injectorCap",
		"steal_batch":       "sched.cfg.stealBatch",
	})
}

// serveSnap is the state of the counters one window is measured
// between.
type serveSnap struct {
	st     serve.Stats
	sch    sched.Stats
	hasSch bool
	mem    runtime.MemStats
	cpu    time.Duration
	at     time.Time
}

func snapServe(s *serve.Server) serveSnap {
	var sn serveSnap
	sn.st = s.Stats()
	sn.sch, sn.hasSch = s.Scheduler().Stats()
	runtime.ReadMemStats(&sn.mem)
	sn.cpu = cpuTime()
	sn.at = time.Now()
	return sn
}

func stageMeanUs(a, b serve.StageStats, pick func(serve.StageStats) (sum, n uint64)) float64 {
	s0, n0 := pick(a)
	s1, n1 := pick(b)
	return ratio(float64(s1-s0), float64(n1-n0)) / 1e3
}

// serveLayers adds the per-layer metrics both serve workloads share:
// the program's stage means (Sum/N only), scheduler wake/park counts,
// allocations and CPU, all per completed request.
func serveLayers(a, b serveSnap, completed float64, handlerUs []float64, layers map[string]float64) {
	stages := map[string]func(serve.StageStats) (uint64, uint64){
		"ingest":  func(s serve.StageStats) (uint64, uint64) { return s.Ingest.Sum, s.Ingest.N },
		"submit":  func(s serve.StageStats) (uint64, uint64) { return s.Submit.Sum, s.Submit.N },
		"run":     func(s serve.StageStats) (uint64, uint64) { return s.Run.Sum, s.Run.N },
		"respond": func(s serve.StageStats) (uint64, uint64) { return s.Respond.Sum, s.Respond.N },
	}
	var stageSum float64
	for name, pick := range stages {
		v := stageMeanUs(a.st.Stages, b.st.Stages, pick)
		layers["serve.stage."+name+"_us"] = v
		stageSum += v
	}
	layers["serve.handler_us.p50"] = percentileOr0(handlerUs, 0.50)
	layers["serve.handler_us.p99"] = percentileOr0(handlerUs, 0.99)
	layers["serve.unattributed_us"] = mean(handlerUs) - stageSum
	if a.hasSch && b.hasSch {
		layers["sched.wakes_per_req"] = ratio(float64(b.sch.Total.Wakes-a.sch.Total.Wakes), completed)
		layers["sched.parks_per_req"] = ratio(float64(b.sch.Total.Parks-a.sch.Total.Parks), completed)
	}
	// Client and server share the process, so these count both.
	layers["serve.allocs_per_req"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), completed)
	layers["serve.alloc_bytes_per_req"] = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), completed)
	cpu := b.cpu - a.cpu
	layers["process.cpu_ns_per_op"] = ratio(float64(cpu), completed)
	layers["process.cpu_util"] = ratio(cpu.Seconds(), b.at.Sub(a.at).Seconds()*float64(nproc()))
}

// timedHandler wraps the server's handler in a span per request, child
// of the client's span named in the request's headers.
type timedHandler struct{ next http.Handler }

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := tracer.now()
	h.next.ServeHTTP(w, r)
	t1 := tracer.now()
	// The benchmark's own client sets both headers; a request without
	// them (none is sent) would record a root span for request 0.
	req, _ := strconv.ParseUint(r.Header.Get("X-Bench-Req"), 10, 64)
	parent, _ := strconv.ParseUint(r.Header.Get("X-Bench-Span"), 10, 64)
	tracer.addShared(span{name: "serve.ServeHTTP", id: tracer.id(), parent: parent, req: req, start: t0, end: t1})
}

// ---- serve-echo ----

type echoRig struct {
	s       *serve.Server
	hs      *http.Server
	tr      *http.Transport
	client  *http.Client
	url     string
	served  chan error
	bodies  [][]byte
	payload []string
	// received counts requests answered by the server with any status,
	// completed those answered 200; conservation is checked against both.
	received, completed atomic.Int64
}

func echoInputs(seed uint64) (payloads []string, bodies [][]byte) {
	rng := rand.New(rand.NewPCG(seed, 0xec40))
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	for i := 0; i < echoPayloads; i++ {
		b := make([]byte, echoPayloadSize)
		for j := range b {
			b[j] = alphabet[rng.IntN(len(alphabet))]
		}
		body, _ := json.Marshal(serve.Job{Kind: "echo", Data: string(b)})
		payloads = append(payloads, string(b))
		bodies = append(bodies, body)
	}
	return payloads, bodies
}

func setupEcho(payloads []string, bodies [][]byte, traced bool) (*echoRig, error) {
	var opts []serve.Option
	if traced {
		opts = append(opts, serve.WithSchedOptions(sched.WithTelemetry()))
	}
	rig := &echoRig{s: serve.New(opts...), payload: payloads, bodies: bodies, served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = shutdownServer(rig.s)
		return nil, err
	}
	var h http.Handler = rig.s.Mux()
	if traced {
		h = timedHandler{next: h}
	}
	rig.hs = &http.Server{Handler: h}
	go func() { rig.served <- rig.hs.Serve(ln) }()
	rig.url = "http://" + ln.Addr().String() + "/jobs"
	rig.tr = &http.Transport{MaxIdleConnsPerHost: echoClients, MaxConnsPerHost: echoClients, DisableCompression: true}
	rig.client = &http.Client{Transport: rig.tr}
	var wg sync.WaitGroup
	errs := make([]error, echoClients)
	for c := 0; c < echoClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < echoWarm; i++ {
				if _, err := rig.do(i%echoPayloads, 0, 0, ""); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return rig, nil
}

// do sends echo payload p and checks the reply.  A transport error or a
// status other than 200 is returned as an error; a wrong reply as a
// correctness violation (the second result).
func (rig *echoRig) do(p int, reqID, spanID uint64, fault string) (violation error, err error) {
	req, err := http.NewRequest(http.MethodPost, rig.url, bytes.NewReader(rig.bodies[p]))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		req.Header.Set("X-Bench-Req", strconv.FormatUint(reqID, 10))
		req.Header.Set("X-Bench-Span", strconv.FormatUint(spanID, 10))
	}
	resp, err := rig.client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	rig.received.Add(1)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	rig.completed.Add(1)
	var jr serve.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		return fmt.Errorf("echo reply does not decode: %v", err), nil
	}
	if fault == "echo-payload" {
		jr.Data = "x" + jr.Data[1:]
	}
	return checkEcho(rig.payload[p], jr), nil
}

// close stops the HTTP server, then drains the job server.
func (rig *echoRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := rig.hs.Shutdown(ctx)
	rig.tr.CloseIdleConnections()
	if serr := <-rig.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := shutdownServer(rig.s); err == nil {
		err = serr
	}
	return err
}

type echoPhase struct {
	rates     []float64
	latencyUs []float64
	completed int64
	before    serveSnap
	after     serveSnap
}

func measureEcho(rig *echoRig, seed uint64, window time.Duration, traced bool, fault string, out *outcome) echoPhase {
	var ph echoPhase
	var stop atomic.Bool
	var mu sync.Mutex
	ph.before = snapServe(rig.s)
	c0 := rig.completed.Load()
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < echoClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(c)))
			var spans *spanBuf
			if traced {
				spans = tracer.buffer()
			}
			var lat []float64
			var attempted, failed int64
			var violations []error
			var firstErr error
			for i := uint64(0); !stop.Load(); i++ {
				p := rng.IntN(echoPayloads)
				reqID := uint64(c)<<48 | i
				var spanID uint64
				if traced {
					spanID = tracer.id()
				}
				t0 := tracer.now()
				violation, err := rig.do(p, reqID, spanID, fault)
				t1 := tracer.now()
				attempted++
				if err != nil || violation != nil {
					failed++
					if violation != nil {
						violations = append(violations, violation)
					} else if firstErr == nil {
						firstErr = err
					}
					continue
				}
				lat = append(lat, float64(t1-t0)/1e3)
				if traced {
					spans.add(span{name: "client.Do", id: spanID, req: reqID, start: t0, end: t1})
				}
			}
			mu.Lock()
			defer mu.Unlock()
			ph.latencyUs = append(ph.latencyUs, lat...)
			out.attempted += attempted
			out.failed += failed
			for _, v := range violations {
				out.violate("%v", v)
			}
			if firstErr != nil {
				out.notes = append(out.notes, fmt.Sprintf("client %d: request failed: %v", c, firstErr))
			}
		}(c)
	}
	last, lastT := c0, start
	for time.Since(start) < window {
		time.Sleep(serveInterval)
		n, t := rig.completed.Load(), time.Now()
		ph.rates = append(ph.rates, float64(n-last)/t.Sub(lastT).Seconds())
		last, lastT = n, t
	}
	stop.Store(true)
	wg.Wait()
	ph.completed = rig.completed.Load() - c0
	ph.after = snapServe(rig.s)
	return ph
}

// finishEcho tears the rig down and checks conservation.
func finishEcho(rig *echoRig, fault string, out *outcome) error {
	if err := rig.close(); err != nil {
		return err
	}
	st := rig.s.Stats()
	completed := uint64(rig.completed.Load())
	if fault == "serve-conserved" {
		completed++
	}
	if err := checkServeConserved(st, uint64(rig.received.Load()), completed); err != nil {
		out.violate("%v", err)
	}
	return nil
}

func runServeEcho(cfg runConfig) (*outcome, error) {
	payloads, bodies := echoInputs(cfg.seed)
	out := &outcome{config: map[string]any{
		"clients": echoClients, "payload_bytes": echoPayloadSize, "transport": "net/http over loopback, keep-alive",
	}}

	if !cfg.trace {
		// Each set-up's server is measured for an equal share of the
		// window and the samples pooled.
		var rates []float64
		for k := 0; k < serveSetups; k++ {
			t0 := time.Now()
			rig, err := setupEcho(payloads, bodies, false)
			if err != nil {
				return nil, err
			}
			out.e2e.setup = append(out.e2e.setup, time.Since(t0))
			out.config["serve"] = serveConfig(rig.s)
			ph := measureEcho(rig, cfg.seed+uint64(k)<<32, cfg.window()/serveSetups, false, cfg.fault, out)
			if err := finishEcho(rig, cfg.fault, out); err != nil {
				return nil, err
			}
			rates = append(rates, ph.rates...)
			out.e2e.latencyUs = append(out.e2e.latencyUs, ph.latencyUs...)
		}
		out.e2e.opsPerSec = median(rates)
		out.e2e.goodput = ratio(float64(out.attempted-out.failed), float64(out.attempted))
		out.named = append(out.named,
			namedValue{"req_per_s", out.e2e.opsPerSec, "req/s"},
			namedValue{"failed_ratio", 1 - out.e2e.goodput, "ratio"},
			namedValue{"latency_samples", float64(len(out.e2e.latencyUs)), "count"})
		return out, nil
	}

	half := cfg.window() / 2
	rig, err := setupEcho(payloads, bodies, false)
	if err != nil {
		return nil, err
	}
	out.config["serve"] = serveConfig(rig.s)
	plain := measureEcho(rig, cfg.seed, half, false, cfg.fault, out)
	if err := finishEcho(rig, cfg.fault, out); err != nil {
		return nil, err
	}
	if rig, err = setupEcho(payloads, bodies, true); err != nil {
		return nil, err
	}
	traced := measureEcho(rig, cfg.seed, half, true, cfg.fault, out)
	if err := finishEcho(rig, cfg.fault, out); err != nil {
		return nil, err
	}
	handlerUs := tracer.durationsUs("serve.ServeHTTP")
	clientUs := tracer.durationsUs("client.Do")
	plainRate, tracedRate := median(plain.rates), median(traced.rates)
	dc := measureDCAS()
	out.layers = map[string]float64{
		"net.outside_handler_us":    mean(clientUs) - mean(handlerUs),
		"dcas.default.ns":           dc.uncontendedNs,
		"dcas.default.contended_ns": dc.contendedNs,
		"trace.overhead_share":      1 - ratio(tracedRate, plainRate),
	}
	serveLayers(traced.before, traced.after, float64(traced.completed), handlerUs, out.layers)

	// What share of the client's mean request time the layers account
	// for: net/http outside the handler, the program's four stage means,
	// and the rest of the handler that no stage covers.
	l := out.layers
	clientMean := mean(clientUs)
	netUs := l["net.outside_handler_us"]
	stages := l["serve.stage.ingest_us"] + l["serve.stage.submit_us"] + l["serve.stage.run_us"] + l["serve.stage.respond_us"]
	l["serve.span_coverage"] = ratio(netUs+stages, clientMean)
	out.notes = append(out.notes,
		fmt.Sprintf("untraced %.4g req/s, traced %.4g req/s", plainRate, tracedRate),
		fmt.Sprintf("client mean %.1f us (%d samples) = net %.1f us (%.1f%%) + stages %.1f us (%.1f%%: ingest %.1f, submit %.1f, run %.1f, respond %.1f) + unattributed %.1f us (%.1f%%)",
			clientMean, len(clientUs), netUs, 100*ratio(netUs, clientMean), stages, 100*ratio(stages, clientMean),
			l["serve.stage.ingest_us"], l["serve.stage.submit_us"], l["serve.stage.run_us"], l["serve.stage.respond_us"],
			l["serve.unattributed_us"], 100*ratio(l["serve.unattributed_us"], clientMean)))
	return out, nil
}

// ---- serve-overload ----

type overloadReq struct {
	tenant int
	spin   int // index into the spin sizes
}

type overloadInputs struct {
	reqs   []overloadReq // replayed cyclically
	spinN  []int
	want   []uint64
	bodies [][]byte
}

func makeOverloadInputs(seed uint64) overloadInputs {
	rng := rand.New(rand.NewPCG(seed, 0x0e41))
	var in overloadInputs
	for i := 0; i < overloadSpinVar; i++ {
		n := overloadSpinN - overloadSpinN/20 + rng.IntN(overloadSpinN/10+1)
		body, _ := json.Marshal(serve.Job{Kind: "spin", N: n})
		in.spinN = append(in.spinN, n)
		in.want = append(in.want, spinResult(n))
		in.bodies = append(in.bodies, body)
	}
	// Equal offered shares: each pair of requests holds one per tenant.
	for len(in.reqs) < 1<<14 {
		first := rng.IntN(2)
		in.reqs = append(in.reqs,
			overloadReq{tenant: first, spin: rng.IntN(overloadSpinVar)},
			overloadReq{tenant: 1 - first, spin: rng.IntN(overloadSpinVar)})
	}
	return in
}

func newOverloadServer(traced bool) *serve.Server {
	opts := []sched.Option{sched.WithInjectorCapacity(overloadInject)}
	if traced {
		opts = append(opts, sched.WithTelemetry())
	}
	return serve.New(serve.WithTenants(overloadTenants...), serve.WithSchedOptions(opts...))
}

// overloadResult is one request's outcome as the generator saw it.
type overloadResult struct {
	code      int
	latencyUs float64 // from the due send time
	handlerUs float64
	queueNs   int64
	runNs     int64
	start     int64 // handler call, tracer clock
	end       int64
	tenant    int
	violation error
}

func doOverload(s *serve.Server, in *overloadInputs, r overloadReq, fault string) overloadResult {
	req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(in.bodies[r.spin]))
	req.Header.Set("X-Tenant", overloadTenants[r.tenant].Name)
	rec := httptest.NewRecorder()
	t0 := tracer.now()
	s.ServeHTTP(rec, req)
	t1 := tracer.now()
	res := overloadResult{code: rec.Code, handlerUs: float64(t1-t0) / 1e3, start: t0, end: t1, tenant: r.tenant}
	if rec.Code != http.StatusOK {
		return res
	}
	var jr serve.JobResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
		res.violation = fmt.Errorf("spin reply does not decode: %v", err)
		return res
	}
	if fault == "spin-result" {
		jr.Result++
	}
	res.violation = checkSpin(in.spinN[r.spin], in.want[r.spin], jr)
	res.queueNs, res.runNs = jr.QueueNs, jr.RunNs
	return res
}

func setupOverload(in *overloadInputs, traced bool) (*serve.Server, error) {
	s := newOverloadServer(traced)
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < overloadWarm; i++ {
				if res := doOverload(s, in, in.reqs[2*i+g], ""); res.code != http.StatusOK || res.violation != nil {
					bad.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if bad.Load() > 0 {
		_ = shutdownServer(s)
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", bad.Load(), 2*overloadWarm)
	}
	return s, nil
}

type overloadPhase struct {
	results []overloadResult
	startNs int64 // first due time, tracer clock
	lateUs  []float64
	elapsed time.Duration
	before  serveSnap
	after   serveSnap
}

// measureOverload offers overloadRate requests per second for window,
// open loop: request i is due at start + i/overloadRate whether or not
// earlier ones have been answered, and its latency counts from then.
func measureOverload(s *serve.Server, in *overloadInputs, window time.Duration, traced bool, fault string) overloadPhase {
	var ph overloadPhase
	ph.before = snapServe(s)
	due0 := ph.before.at.Add(time.Millisecond)
	ph.startNs = int64(due0.Sub(tracer.epoch))
	n := int(window.Seconds() * overloadRate)
	ph.results = make([]overloadResult, n)
	ph.lateUs = make([]float64, n)
	epoch := tracer.epoch
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := due0.Add(time.Duration(i) * time.Second / overloadRate)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		dueNs := int64(due.Sub(epoch))
		ph.lateUs[i] = float64(tracer.now()-dueNs) / 1e3
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := doOverload(s, in, in.reqs[i%len(in.reqs)], fault)
			res.latencyUs = float64(res.end-dueNs) / 1e3
			ph.results[i] = res
			if traced {
				kind := "serve.ServeHTTP"
				if res.code == http.StatusTooManyRequests {
					kind = "serve.ServeHTTP.429"
				}
				root := tracer.id()
				tracer.addShared(span{name: "generator.request", id: root, req: uint64(i), start: dueNs, end: res.end})
				tracer.addShared(span{name: kind, id: tracer.id(), parent: root, req: uint64(i), start: res.start, end: res.end})
			}
		}(i)
	}
	wg.Wait()
	ph.elapsed = time.Since(due0)
	ph.after = snapServe(s)
	return ph
}

// firstRefusal is how long after the first due time the first 429 was
// answered, or -1 if none was.
func (ph *overloadPhase) firstRefusal() time.Duration {
	first := time.Duration(-1)
	for _, r := range ph.results {
		if d := time.Duration(r.end - ph.startNs); r.code == http.StatusTooManyRequests && (first < 0 || d < first) {
			first = d
		}
	}
	return first
}

// tally counts one phase's outcomes into out.
func (ph *overloadPhase) tally(out *outcome) (ok int64) {
	for _, r := range ph.results {
		out.attempted++
		switch {
		case r.violation != nil:
			out.failed++
			out.violate("%v", r.violation)
		case r.code == http.StatusOK:
			ok++
		case r.code == http.StatusTooManyRequests:
		default:
			out.failed++
			out.violate("overload request answered %d", r.code)
		}
	}
	return ok
}

func finishOverload(s *serve.Server, received, completed uint64, fault string, out *outcome) error {
	if err := shutdownServer(s); err != nil {
		return err
	}
	if fault == "serve-conserved" {
		completed++
	}
	if err := checkServeConserved(s.Stats(), received, completed); err != nil {
		out.violate("%v", err)
	}
	return nil
}

func runServeOverload(cfg runConfig) (*outcome, error) {
	in := makeOverloadInputs(cfg.seed)
	out := &outcome{config: map[string]any{
		"offered_rps": overloadRate, "tenants": overloadTenants, "injector_capacity": overloadInject,
		"spin_n": overloadSpinN, "spin_sizes": in.spinN, "generator": "in-process, open loop, ServeHTTP called directly",
	}}
	warmed := uint64(2 * overloadWarm)

	if !cfg.trace {
		// Each set-up's server is measured for an equal share of the
		// window and the requests pooled.
		var ok int64
		var elapsed, lastFirst429 time.Duration
		for k := 0; k < serveSetups; k++ {
			t0 := time.Now()
			s, err := setupOverload(&in, false)
			if err != nil {
				return nil, err
			}
			out.e2e.setup = append(out.e2e.setup, time.Since(t0))
			out.config["serve"] = serveConfig(s)
			ph := measureOverload(s, &in, cfg.window()/serveSetups, false, cfg.fault)
			phOK := ph.tally(out)
			if err := finishOverload(s, warmed+uint64(len(ph.results)), warmed+uint64(phOK), cfg.fault, out); err != nil {
				return nil, err
			}
			ok += phOK
			elapsed += ph.elapsed
			if f := ph.firstRefusal(); f < 0 || lastFirst429 < 0 {
				lastFirst429 = -1
			} else {
				lastFirst429 = max(lastFirst429, f)
			}
			for _, r := range ph.results {
				if r.code == http.StatusOK && r.violation == nil {
					out.e2e.latencyUs = append(out.e2e.latencyUs, r.latencyUs)
				}
			}
		}
		out.e2e.opsPerSec = float64(ok) / elapsed.Seconds()
		out.e2e.goodput = ratio(float64(ok), float64(out.attempted))
		out.named = append(out.named,
			namedValue{"req_per_s", out.e2e.opsPerSec, "req/s"},
			namedValue{"failed_ratio", 1 - out.e2e.goodput, "ratio"},
			namedValue{"latency_samples", float64(len(out.e2e.latencyUs)), "count"})
		if lastFirst429 < 0 {
			out.notes = append(out.notes, "some instance answered no 429: the offered load did not overload it")
		} else {
			out.notes = append(out.notes, fmt.Sprintf("429s began within %.1f ms of the load starting, in every instance", lastFirst429.Seconds()*1e3))
		}
		return out, nil
	}

	half := cfg.window() / 2
	s, err := setupOverload(&in, false)
	if err != nil {
		return nil, err
	}
	out.config["serve"] = serveConfig(s)
	plain := measureOverload(s, &in, half, false, cfg.fault)
	plainOK := plain.tally(out)
	if err := finishOverload(s, warmed+uint64(len(plain.results)), warmed+uint64(plainOK), cfg.fault, out); err != nil {
		return nil, err
	}
	if s, err = setupOverload(&in, true); err != nil {
		return nil, err
	}
	traced := measureOverload(s, &in, half, true, cfg.fault)
	tracedOK := traced.tally(out)
	if err := finishOverload(s, warmed+uint64(len(traced.results)), warmed+uint64(tracedOK), cfg.fault, out); err != nil {
		return nil, err
	}

	var handlerUs, rejectUs, queueMs []float64
	var runNs int64
	for _, r := range traced.results {
		switch r.code {
		case http.StatusOK:
			handlerUs = append(handlerUs, r.handlerUs)
			queueMs = append(queueMs, float64(r.queueNs)/1e6)
			runNs += r.runNs
		case http.StatusTooManyRequests:
			rejectUs = append(rejectUs, r.handlerUs)
		}
	}
	acc := func(sn serveSnap, t int) float64 { return float64(sn.st.Tenants[t].Accepted) }
	heavy := acc(traced.after, 0) - acc(traced.before, 0)
	light := acc(traced.after, 1) - acc(traced.before, 1)
	plainRate := float64(plainOK) / plain.elapsed.Seconds()
	tracedRate := float64(tracedOK) / traced.elapsed.Seconds()
	dc := measureDCAS()
	out.layers = map[string]float64{
		"serve.reject_us.p50":       percentileOr0(rejectUs, 0.50),
		"serve.queue_ms.p50":        percentileOr0(queueMs, 0.50),
		"serve.queue_ms.p99":        percentileOr0(queueMs, 0.99),
		"serve.job_cpu_share":       ratio(float64(runNs), float64(traced.after.cpu-traced.before.cpu)),
		"serve.pump.heavy_share":    ratio(heavy, heavy+light),
		"generator.late_us.p99":     percentileOr0(traced.lateUs, 0.99),
		"dcas.default.ns":           dc.uncontendedNs,
		"dcas.default.contended_ns": dc.contendedNs,
		"trace.overhead_share":      1 - ratio(tracedRate, plainRate),
	}
	serveLayers(traced.before, traced.after, float64(tracedOK), handlerUs, out.layers)
	out.notes = append(out.notes,
		fmt.Sprintf("untraced goodput %.4g req/s, traced %.4g req/s of %d offered; %d refused with 429 in the traced half",
			plainRate, tracedRate, overloadRate, len(rejectUs)))
	return out, nil
}
