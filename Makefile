# Build and verification entry points. `make ci` is the full battery a
# change must pass before merging.

GO ?= go

.PHONY: all build fmt vet lint test shuffle race fault fuzz service-it crash-it bench bench-smoke bench-check bench-diff bench-diff-advisory ci clean

all: build

build:
	$(GO) build ./...

# Formatting gate: fails listing the offending files, so ci rejects
# unformatted code instead of silently reformatting it.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-specific static analysis (cmd/vipilint): loads the module
# under go/types, runs every rule (determinism, map order, error
# taxonomy, context and goroutine conventions, filesystem confinement,
# artifact ownership, shared-capture races, dead code) and rejects
# stale //lint:ignore directives. 1-2 s on a 2-vCPU host; CI gates on it.
lint:
	$(GO) run ./cmd/vipilint -strict .

test:
	$(GO) test ./...

# Order dependence: the root package's tests, the goldens among them,
# in a fresh random order each run (~6 s). A failing run prints its
# seed (`-test.shuffle N`); -shuffle=N replays that order.
shuffle:
	$(GO) test -count=1 -shuffle=on .

# The concurrency-heavy engines (Monte Carlo dispatch/cancellation,
# gate-level simulation, the pipeline graph scheduler, the timing
# kernels and yield shards that run side by side over one shared
# kernel structure, the forked chip samplers that share one
# systematic map and the package-level seeding and ziggurat tables,
# the island search that re-runs one set of worker cores across its
# checks) and the facade run under the race detector; this is what
# validates the worker-drain guarantees of mc.Run and the graph's
# concurrent node scheduling.
race:
	$(GO) test -race . ./internal/pipeline ./internal/mc ./internal/gsim ./internal/vexsim ./internal/flowerr ./internal/drc ./internal/tmodel ./internal/sta ./internal/yield ./internal/variation ./internal/vi

# The fault-injection suite: corrupted SDF/DEF/netlist/placement/region
# artifacts must yield typed errors, never panics.
fault:
	$(GO) test -v -run 'TestCorrupted|TestGuard' ./internal/faultinject

# Short deterministic fuzz pass over the interchange parsers.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParseSDF -fuzztime=10s ./internal/sdf
	$(GO) test -run=^$$ -fuzz=FuzzParseDEF -fuzztime=10s ./internal/def

# Service integration: the in-process HTTP tests (submit/poll/cancel/
# drain, >=8 concurrent clients, backpressure, degraded serving) plus
# the daemon end-to-end tests, which build cmd/vipiped, boot it on a
# random port, drive jobs over HTTP and SIGTERM it. Everything runs
# under the race detector; the daemon exits inside the test, so
# nothing leaks.
service-it:
	$(GO) test -race -count=1 ./internal/service/... ./cmd/vipiped

# Durability integration: kill -9 a daemon mid-computation, restart it
# over the same -store directory, and prove the second sweep is warm
# while a deliberately corrupted artifact is quarantined, never
# served. Runs without -race (it drives the real binary; the in-test
# harness is trivial) so the crash cycle stays fast.
crash-it:
	$(GO) test -count=1 -run 'TestDaemonCrashRecovery|TestDaemonDegradedStore' ./cmd/vipiped

# Service-engine benchmark. `make bench` runs the full sweep benchmark
# and writes benchstat-friendly output to BENCH_service.json (go test
# -json stream; pipe `jq -r 'select(.Action=="output").Output'` into
# benchstat, or read the Benchmark lines directly). bench-smoke is the
# one-iteration ci variant: it proves the benchmarks still compile and
# run without paying measurement time, the service ones, the
# Monte Carlo sample layers (bound, refine, a whole full-core sample,
# the draw, a yield shard, the island search), global placement, the
# FIR gate-level co-simulation, and the pipeline layer (Store.Do hit
# and miss per store, one warm graph request).
bench:
	$(GO) test -json -run '^$$' -bench 'BenchmarkServiceScenarioSweep|BenchmarkFieldSweep|BenchmarkWhatIf' -benchmem . | tee BENCH_service.json

bench-smoke:
	$(GO) test -run 'TestFieldSweepWarmDirtySpeedup|TestWhatIfSpeedup' -bench 'BenchmarkServiceScenarioSweep|BenchmarkFieldSweep|BenchmarkWhatIf' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'KernelBound|KernelRefine|ChipSample|SamplerDraw|ComputeShard|Generate' -benchtime 1x ./internal/sta ./internal/mc ./internal/variation ./internal/yield ./internal/vi
	$(GO) test -run '^$$' -bench Global -benchtime 1x ./internal/place
	$(GO) test -run '^$$' -bench TestbenchFIR -benchtime 1x ./internal/vexsim
	$(GO) test -run '^$$' -bench 'StoreDo|GraphRequest' -benchtime 1x ./internal/pipeline

# The benchmark harness (bench/) is a module of its own, so the root
# `go build ./...` never compiles it. bench-check vets and tests it
# against this tree; TestWorkloadsSmoke checks every workload's seed-1
# digests against bench/golden.json (~30 s).
bench-check:
	cd bench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test ./...

# Benchmark-regression gate: measure a fresh run into BENCH_fresh.json
# (never overwriting the committed baseline) and compare the gated
# warm-path speedup ratios against cmd/benchdiff/testdata/baseline.json
# — ratios, not absolute ns/op, so a slower machine passes but a >25%
# relative regression of a speedup fails. To move the baseline, copy a
# BENCH_fresh.json over it and commit it.
bench-diff:
	$(GO) test -json -run '^$$' -bench 'BenchmarkServiceScenarioSweep|BenchmarkFieldSweep|BenchmarkWhatIf' -benchmem . > BENCH_fresh.json
	$(GO) run ./cmd/benchdiff -old cmd/benchdiff/testdata/baseline.json -new BENCH_fresh.json

# ci runs the ratio gate advisory (the leading `-`): benchmark noise
# on shared runners must not block a merge, but the report still
# lands in the log. bench-smoke stays the hard gate that the
# benchmarks build and run.
bench-diff-advisory:
	-$(MAKE) bench-diff

ci: fmt vet lint build race test shuffle fault service-it crash-it bench-smoke bench-check bench-diff-advisory

clean:
	$(GO) clean ./...
