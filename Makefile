# Build / test / benchmark entry points for the reproduction.

GO ?= go
DATE := $(shell date +%F)

.PHONY: all build test race stress allocs coverage loc fuzz vet bench bench-smoke memprofile profile profile-exec

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector with shuffled test
# order; the serving daemon's HTTP surface, shard loops and job registry
# are exercised concurrently by the api package's tests.
race:
	$(GO) test -race -shuffle=on ./...

# stress repeats the timing-sensitive tests (churn, leave, drain, cancel, the
# settled-job tests that wait on the garbage collector, the wait:true holder
# cap, and the recycling canaries: stale event handles, reused LLM requests,
# and execution blocks — both differentials against the never-reuse arm, the
# stale-release cases and the parked block's collectability, all with released
# blocks poisoned, as every test of the core binary runs; and the plan search's
# dispatch against the capacity class with its commit conflicts, and the
# off-loop reconfiguration re-plan's commit) under the race detector: a
# one-in-twelve failure passes a single run 92 % of the time.
# CI runs the same line.
stress:
	$(GO) test -race -count=25 -run 'Churn|Leave|Drain|Cancel|WireCodecConcurrent|SettledRecord|SettledJobs|StaleHandle|CompletedRequestsAreReused|RecycledBlocks|FromRecycledBlocks|ReleaseIsDefined|ParkedBlockKeeps|WaitHolders|DispatchCapturesCapacityClass|PlanConflict|ReconfigOffLoop' ./internal/serving ./internal/router ./internal/api ./internal/core ./internal/sim

# allocs runs the tier-1 allocation budgets (the wire, the job hand-off warm
# and cold, the execution layer in objects and in bytes, a launch cold and into
# a released block, a decomposition, a graph build and freeze, a warm plan
# search and its worker queue, the event core, telemetry compaction, the
# serving scenario runners and one load-sweep point) verbosely, so their
# measured counts print in one place; CI runs the same line.
allocs:
	$(GO) test -count=1 -v -run 'AllocBudget|ByteBudget|ExecutionIsOneBlock|SteadyStateAllocatesNothing|EngineSteadyState|KeepsItsSlab|SearchQueueDrainsClean' ./internal/api ./internal/core ./internal/dag ./internal/experiments ./internal/optimizer ./internal/planner ./internal/serving ./internal/sim ./internal/telemetry

# coverage runs the whole suite with statement coverage over internal/ and
# cmd/ (the allocation budgets skip: coverage counters allocate) into
# cover.out, then lists the non-test functions no test executes (ROADMAP item
# 18 gives each one a verdict).
coverage:
	$(GO) test -coverpkg=./internal/...,./cmd/... -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | awk '$$NF == "0.0%" { print; n++ } END { print n + 0, "functions at 0.0%" }'

# loc prints the non-test Go source lines outside bench/ledger: the size a
# subtraction change is measured by.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/ledger/*' -print0 | xargs -0 cat | wc -l

# fuzz runs the native fuzz targets for a short while each (one -fuzz
# pattern per go test invocation); CI runs the same line.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzGraphOps -fuzztime 10s ./internal/dag
	$(GO) test -run '^$$' -fuzz FuzzDecodeJobRequest -fuzztime 10s ./internal/api
	$(GO) test -run '^$$' -fuzz FuzzEngineOps -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzFaultTrace -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzPoolConfigValidate -fuzztime 10s ./internal/api

vet:
	$(GO) vet ./...

# bench writes the full benchmark suite (paper metrics + perf counters +
# allocation stats) as test2json events to BENCH_<date>.json, building the
# perf trajectory across PRs. Human-readable output goes to stdout via tee.
bench:
	$(GO) test -bench . -benchmem -benchtime 5x -run '^$$' -json . | tee BENCH_$(DATE).json

# bench-smoke is the CI-speed variant: one iteration per benchmark.
bench-smoke:
	$(GO) test -bench . -benchmem -benchtime 1x -run '^$$' .

# memprofile runs the retention benchmark (bounded shard telemetry under a
# long served history) with heap/alloc profiles, for digging into where
# serving memory goes: go tool pprof mem_<date>.prof
memprofile:
	$(GO) test -bench 'BenchmarkServingRetention' -benchmem -benchtime 3x \
		-run '^$$' -memprofile mem_$(DATE).prof -memprofilerate 1 .
	@echo "wrote mem_$(DATE).prof (inspect with: go tool pprof repro.test mem_$(DATE).prof)"

# profile captures CPU and heap profiles from the serving hot path
# (BenchmarkServing: the mixed-tenant HTTP replay against both serving
# architectures) into bench/prof/ — the first step of the profile → fix →
# gate loop documented in README's Performance section. Top allocation
# sites by object count:
#   go tool pprof -top -sample_index=alloc_objects bench/prof/serving.mem.pprof
# Where CPU goes:
#   go tool pprof -top bench/prof/serving.cpu.pprof
# Caveat: at the default memprofilerate one sample extrapolates to ~32k
# 16-byte objects, so per-site counts under a few samples are noise — trust
# -benchmem allocs/op deltas for small effects.
profile:
	@mkdir -p bench/prof
	$(GO) test -bench '^BenchmarkServing$$' -benchtime 2x -run '^$$' \
		-cpuprofile bench/prof/serving.cpu.pprof \
		-memprofile bench/prof/serving.mem.pprof .
	@echo "wrote bench/prof/serving.{cpu,mem}.pprof"

# profile-exec profiles the execution layer alone (BenchmarkExecute in
# internal/core: the ledger's three exec_heavy shapes and the three ServiceMix
# shapes, each through one warm runtime from submit to report) into
# bench/prof/. Two runs, because -memprofilerate 1 records every allocation —
# which makes per-job counts exact (divide by the benchmark's iterations) and
# the CPU profile useless:
#   go tool pprof -top -sample_index=alloc_objects bench/prof/core.test bench/prof/exec.mem.pprof
#   go tool pprof -top bench/prof/core.test bench/prof/exec.cpu.pprof
profile-exec:
	@mkdir -p bench/prof
	$(GO) test ./internal/core -run '^$$' -bench '^BenchmarkExecute$$' -benchmem -benchtime 300x \
		-o bench/prof/core.test -cpuprofile bench/prof/exec.cpu.pprof
	$(GO) test ./internal/core -run '^$$' -bench '^BenchmarkExecute$$' -benchmem -benchtime 300x \
		-o bench/prof/core.test -memprofile bench/prof/exec.mem.pprof -memprofilerate 1
	@echo "wrote bench/prof/exec.{cpu,mem}.pprof (binary: bench/prof/core.test)"
