# Tier-1 verification targets. `make check` is the gate: vet + build +
# test + race + the benchmark module's tests (`make ci` is an alias). The
# race target matters here: the solver's WithParallelism paths are
# required to be race-clean AND bit-identical to sequential runs.

GO ?= go

# Perf-trajectory output of bench-json. Bump per PR so the repository
# accumulates a benchmark history (BENCH_PR3.json, BENCH_PR4.json, ...).
BENCH_OUT ?= BENCH_PR10.json

# Serving-layer trajectory output of bench-serve (the PR-5 tentpole):
# request throughput with warm-cache hit rate, serve-vs-direct overhead,
# and the warm unassigned workload.
SERVE_BENCH_OUT ?= BENCH_PR5.json

# Candidate-index trajectory output of bench-index (the PR-9 tentpole):
# the off/prune/approx scan sweep on the n=m=1000 instance, with ns/scan,
# prune_rate and cost_ratio reported per mode.
INDEX_BENCH_OUT ?= BENCH_PR9.json

.PHONY: all vet fmt-check build test test-race test-perfbench test-faults test-alloc-pins fuzz-arena fuzz-bound fuzz-emax bench bench-parallel bench-json bench-serve bench-index examples check ci

all: check

vet:
	$(GO) vet ./...

# fmt-check fails (listing the offenders) when any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# test-perfbench runs the tests of the nested benchmark module (the
# comparator, its quantiles, and BENCHMARK.json against the program's
# metric tables), which root `go test ./...` never reaches. Offline and
# without touching perfbench/go.mod or go.sum.
test-perfbench:
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off GOWORK=off $(GO) test ./...

# test-faults is the nightly fault-injection sweep under the race
# detector: the seeded panic/error/latency soak through the serving layer,
# the drain lifecycle and Close/Register race, the torn-write quarantine
# torture test, and the client retry/circuit-breaker contract.
test-faults:
	$(GO) test -race -run 'Fault|Fire|Panic|Drain|Shutdown|Quarantine|TornWrite|CloseRegister|Breaker|Retry' \
		./serve ./internal/faults ./client ./cmd/ukserver

# test-alloc-pins is the nightly zero-allocation gate: the nil tracer and
# the disabled flight recorder must add ZERO allocations to the paths they
# instrument, and a warmed E-cost (emax) and swap-neighborhood scan (core)
# must allocate nothing at all. These tests run in `make test` too; the
# standalone target fails the nightly loudly and in isolation if a change
# loses a nil guard or brings back an allocating sort.
test-alloc-pins:
	$(GO) test -v -run 'Allocs' ./obs ./serve ./internal/emax ./internal/core

# fuzz-arena runs the snapshot decoder fuzzer for $(FUZZTIME): arbitrary
# bytes through the full .ukc validation pipeline (nightly CI).
FUZZTIME ?= 5m
fuzz-arena:
	$(GO) test -fuzz FuzzOpen -fuzztime $(FUZZTIME) -run '^$$' ./internal/arena

# fuzz-bound runs the candidate-index soundness fuzzer for $(FUZZTIME):
# random metric instances through LowerBound(base, c) ≤ EvalSwap(base, c) +
# 1e-12 — the inequality CandIndexPrune's bit-identical-trajectory claim
# rests on (nightly CI).
fuzz-bound:
	$(GO) test -fuzz FuzzLowerBound -fuzztime $(FUZZTIME) -run '^$$' ./internal/core

# fuzz-emax runs the expected-max precision fuzzer for $(FUZZTIME): RVs
# with atoms down to the smallest subnormal mass, masses summing to 1
# within ProbSumTol and heavy ties, through ExpectedMax and ExpectedMaxFlat
# against the naive enumeration within 1e-9·(1+|want|) (nightly CI).
fuzz-emax:
	$(GO) test -fuzz FuzzExpectedMax -fuzztime $(FUZZTIME) -run '^$$' ./internal/emax

# Full benchmark sweep (slow); bench-parallel records just the
# sequential-vs-worker-pool trajectory (BENCH_*.json inputs).
bench:
	$(GO) test -bench . -benchmem -run '^$$' .

bench-parallel:
	$(GO) test -bench 'Parallel|Batch' -benchmem -run '^$$' .

# bench-json records the perf trajectory as a test2json stream into
# $(BENCH_OUT): the parallel E-cost and unassigned-scan benches, the
# incremental-vs-scratch swap evaluator pair (the PR-3 tentpole's ≥5×
# claim), the compiled-vs-fresh repeated-solve pair (the PR-4 tentpole's
# amortization claim), the instrumentation-off-vs-on overhead pair (the
# PR-6 tentpole's zero-cost-default claim), the cold-JSON-load vs
# snapshot-open vs warm-solve curves (the PR-7 tentpole's
# restart-without-recompiling claim), and the flight-recorder triple —
# disabled / enabled-unsampled / enabled-retained (the PR-10 tentpole's
# tail-sampling cost curve; disabled must report 0 B/op, 0 allocs/op).
bench-json:
	$(GO) test -json -run '^$$' -benchmem \
		-bench 'BenchmarkUnassignedParallel$$|BenchmarkEcostParallel$$|BenchmarkSwapIncremental$$|BenchmarkRepeatedSolve$$|BenchmarkObsOverhead' \
		. > $(BENCH_OUT)
	$(GO) test -json -run '^$$' -benchmem -bench 'BenchmarkSnapshot' ./store >> $(BENCH_OUT)
	$(GO) test -json -run '^$$' -benchmem -bench 'BenchmarkFlightRecorder' ./obs >> $(BENCH_OUT)

# bench-serve records the serving-layer trajectory as a test2json stream
# into $(SERVE_BENCH_OUT): throughput through the sharded server in the
# warm-cache and forced-eviction regimes (hit-rate and evictions/op are
# reported from the server's own metrics), the per-request overhead over a
# direct Solver call, and the warm unassigned workload.
bench-serve:
	$(GO) test -json -run '^$$' -benchmem -bench 'BenchmarkServe' ./serve > $(SERVE_BENCH_OUT)

# bench-index records the candidate-index quality/speed curve into
# $(INDEX_BENCH_OUT): BenchmarkCandIndexScan/{off,prune,approx} on the
# n=m=1000 acceptance instance. The off row is the PR-3 oracle scan (the
# "old" side), prune/approx are the indexed scans (the "new" side); compare
# their ns/scan like a benchstat old-vs-new pair — same instance, same
# seeds, so the ratio is the per-scan speedup, prune_rate is the fraction
# of candidate evaluations the pivot bound skipped (acceptance floor 0.50,
# enforced inside the bench), and cost_ratio pins prune at exactly 1.0
# (bit-identical) while recording approx's quality trade.
bench-index:
	$(GO) test -json -run '^$$' -benchmem -benchtime 1x -bench 'BenchmarkCandIndexScan' . > $(INDEX_BENCH_OUT)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sensornet
	$(GO) run ./examples/roadnetwork
	$(GO) run ./examples/adversarial
	$(GO) run ./examples/streaming
	$(GO) run ./examples/serving
	$(GO) run ./cmd/ukserver -selfcheck
	$(GO) run ./cmd/ukfreeze -selfcheck

check: vet fmt-check build test test-race test-perfbench

ci: check
