# Development entry points. `make check` is the gate every PR must pass;
# it is what scripts/check.sh runs in CI.

GO ?= go

.PHONY: check check-fast lint fmt vet build test race bench bench-json perfdiff golden clean serve loadtest profile

check: ## full PR gate: format, vet, simlint, build, tests, fuzz-corpus smoke, race on the sweep fan-out + torture matrix
	./scripts/check.sh

# The gate minus the race-detector passes — quick local iteration.
check-fast:
	./scripts/check.sh -fast

# Static invariant passes: the syntactic tier (determinism, poolhygiene,
# hotpathalloc, statsnapshot; DESIGN.md §9) plus the flow-sensitive tier
# (poolflow, hashneutral, waiterpair; DESIGN.md §14) and the
# stale-suppression sweep. scripts/hotpath_escape.sh cross-checks
# hotpathalloc suppressions against the compiler's escape analysis;
# `go run ./cmd/simlint -json ./...` emits machine-readable findings.
lint:
	$(GO) run ./cmd/simlint ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# experiments/experiments.go fans simulations out across goroutines; run it
# under the race detector explicitly, along with the sweepd service soak
# (warm pool, bounded queue, shutdown drains) and its subprocess tests.
race:
	$(GO) test -race ./experiments
	$(GO) test -race -count=1 ./internal/sweepsrv ./cmd/sweepd

# Run the sweep service locally (see EXPERIMENTS.md for the curl recipes).
serve:
	$(GO) run ./cmd/sweepd -addr 127.0.0.1:8356

# Seeded load harness against an in-process server; JSON report on stdout.
loadtest:
	$(GO) run ./cmd/sweepd -loadtest

# Headline + micro benchmarks (human-readable).
bench:
	$(GO) test -run xxx -bench 'Fig9' -benchmem -benchtime 1x .
	$(GO) test -run xxx -bench . -benchmem ./internal/sim ./internal/sig ./internal/chunk

# Machine-readable perf snapshot tracked across PRs.
bench-json:
	$(GO) run ./cmd/bench2json -o BENCH_core.json

# Regression-gate the current machine's numbers against the checked-in
# snapshot: regenerate to a scratch file and diff (fails on >15% ns/op or
# >25% allocs/op growth in the fig9 sweeps or any micro). Override the
# baseline with PERFDIFF_BASE=path.
PERFDIFF_BASE ?= BENCH_core.json
perfdiff:
	$(GO) run ./cmd/bench2json -o /tmp/bulksc-bench-current.json
	./scripts/perfdiff.sh $(PERFDIFF_BASE) /tmp/bulksc-bench-current.json

# CPU-profile the headline sweep: one cold Fig9 pass under -cpuprofile,
# then the flat top-10. EXPERIMENTS.md ("Profiling the hot path") holds
# the committed table; refresh it from this output after hot-path work.
# PROFILE_BENCH=BenchmarkFig9Warm profiles the warm-reuse mode instead.
# The test binary and cpu.pprof go to a fresh temp directory, whose path
# is printed for further `go tool pprof` sessions.
PROFILE_BENCH ?= BenchmarkFig9
profile:
	@dir=$$(mktemp -d) && \
	$(GO) test -run '^$$' -bench '$(PROFILE_BENCH)$$' -benchtime 1x -cpuprofile $$dir/cpu.pprof -o $$dir/bulksc.test . && \
	$(GO) tool pprof -top -nodecount=10 $$dir/bulksc.test $$dir/cpu.pprof && \
	echo "profile: $$dir/bulksc.test $$dir/cpu.pprof"

# Regenerate the golden determinism table — ONLY after a deliberate
# behavioral change; performance-only PRs must leave it untouched.
golden:
	$(GO) test ./internal/core -run TestGoldenDeterminism -update-golden

clean:
	rm -f bulksc.test cpu.pprof mem.pprof trace.out
