# Developer entry points mirroring .github/workflows/ci.yml.

GO ?= go

.PHONY: all build lint test race check vet-fixtures sched-stress sched-bench latobs-bench soak-smoke soak serve-smoke serve-stress serve-bench

all: check

build:
	$(GO) build ./...

# lint = go vet + the repository's own proof-discipline analyzers
# (atomicmix, atomicvalue, lockpath, stampwidth, hbpublish, linpoint,
# telemhook, padlayout; see DESIGN.md §7 and §11).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/dequevet ./...

# The analyzers' own test suites: per-analyzer `// want` fixtures under
# internal/analysis/*/testdata plus the driver's seeded-violation cases.
vet-fixtures:
	$(GO) test ./internal/analysis/... ./cmd/dequevet

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# Randomized scheduler stress certification (bounded; CI runs 300
# race-instrumented, the full certification is -sched-runs 10000).
sched-stress:
	$(GO) run -race ./cmd/dequestress -sched -sched-runs 300

# Scheduler throughput benchmark: workloads × deque backends (chaselev
# included) × worker counts, written to BENCH_PR6.json.  One grid serves
# both EXPERIMENTS.md SCHED and CHASELEV.
sched-bench:
	$(GO) run ./cmd/dequebench -exp sched -ops 50000 -workers 1,2,4,8 -json BENCH_PR6.json

# Latency observability pricing: deque cells at off/telem/lat and sched
# cells at off/lat/lat+trace, with the quantiles the lat cells buy,
# written to BENCH_PR9.json (EXPERIMENTS.md LATOBS).
latobs-bench:
	$(GO) run ./cmd/dequebench -exp latobs -ops 30000 -workers 2,4 -json BENCH_PR9.json

# Memory-bounded soak smoke (CI-required): 90 seconds of race-
# instrumented churn split across every backend × workload cell, with
# quiescent conservation checks at every sample and a full-drain leak
# audit — followed by the known-positive: the seeded LFRC leak (every
# 64th release dropped) must be DETECTED or the step fails.  Artifacts
# (occupancy timeline CSV + flight dump) are written on violation; see
# EXPERIMENTS.md SOAK.
soak-smoke:
	$(GO) run -race ./cmd/dequesoak -d 90s
	$(GO) run -race ./cmd/dequesoak -certify-leak -d 5s

# The full long-haul run (not in CI — run before a release): an hour of
# uninstrumented churn per the same matrix, then the leak certification.
soak:
	$(GO) run ./cmd/dequesoak -d 1h
	$(GO) run ./cmd/dequesoak -certify-leak -d 30s

# Serve smoke (CI-mirrored): dequeserve + dequeload race-instrumented,
# SIGTERM delivered mid-load; dequeserve exits nonzero if the drain
# violates the admission conservation laws.
serve-smoke:
	$(GO) build -race -o /tmp/dequeserve ./cmd/dequeserve
	$(GO) build -race -o /tmp/dequeload ./cmd/dequeload
	$(GO) build -o /dev/null ./cmd/dequetop
	rm -f /tmp/serve.addr; \
	/tmp/dequeserve -listen 127.0.0.1:0 -addr-file /tmp/serve.addr -drain 10s & \
	SERVE_PID=$$!; \
	for i in $$(seq 100); do [ -s /tmp/serve.addr ] && break; sleep 0.1; done; \
	/tmp/dequeload -url "http://$$(cat /tmp/serve.addr)/jobs" -mode open -rate 300 \
	  -duration 6s -kind fib -n 25 -verify -tenants free:1,gold:3 & \
	LOAD_PID=$$!; \
	sleep 3; \
	$(GO) run ./cmd/dequetop -once -url "http://$$(cat /tmp/serve.addr)/metrics" | tee /tmp/dequetop.txt; \
	grep -q '^dequeserve\.sched ' /tmp/dequetop.txt || { kill -TERM $$SERVE_PID; exit 1; }; \
	kill -TERM $$SERVE_PID; \
	wait $$LOAD_PID || true; wait $$SERVE_PID

# Randomized serve fault certification (CI runs 200 race-instrumented;
# the full certificate is -serve-runs 1000, also embedded in the
# dequebench serve report).
serve-stress:
	$(GO) run -race ./cmd/dequestress -serve -serve-runs 200

# Serving benchmark: closed-loop capacity calibration, open-loop sweep
# at 0.5C/0.9C/1.5C per backend, and the fault certificate, written to
# BENCH_SERVE.json (EXPERIMENTS.md SERVE).
serve-bench:
	$(GO) run ./cmd/dequebench -exp serve -serve-duration 2s -serve-cert 1000 -json BENCH_SERVE.json

check: build lint test race
