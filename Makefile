GO ?= go
DATE ?= $(shell date +%Y-%m-%d)

# The packages holding the hot-path micro-benchmarks (simulation kernel,
# GF(2^8)/erasure coding, linearizability checker).
MICRO_PKGS = ./internal/gf ./internal/erasure ./internal/ioa ./internal/consistency
MICRO_BENCH = 'BenchmarkMulSlice|BenchmarkEncodeDecode|BenchmarkFairRunSweep|BenchmarkRandomRunSweep|BenchmarkCheckAtomicDense'

.PHONY: build test race live-race chaos-smoke check-smoke liveload-smoke netload-smoke telemetry-smoke perfbench-smoke bench bench-smoke bench-micro bench-micro-smoke bench-json fuzz-smoke examples fmt fmt-check vet apicheck apicheck-update ci

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order to catch order-dependent tests.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# The node runtime (internal/noderun) and its two links are the code whose
# correctness depends on goroutine interleavings, so they get a dedicated
# double-pass race smoke: two counted runs catch schedules a single pass
# misses.
live-race:
	$(GO) test -race -count=2 ./internal/noderun ./internal/live ./internal/netrun

# Chaos smoke: the wall-clock fault scheduler's crash+partition behavior on
# the live and net backends under the race detector — the chaos tests first
# (snapshot-restore durability, partition gate timing, goroutine reaping,
# quorum-kill quiescence), then a small faultsim scenario matrix driving the
# whole grid over real goroutines and real sockets.
chaos-smoke:
	$(GO) test -race -count=1 -run 'Partition|Recovery|CrashRecover|CrashReaps|QuorumKill' ./internal/live ./internal/netrun
	$(GO) run -race ./cmd/faultsim -grid -backend live,net -n 3 -f 1 -keys 8 -ops 16 -valuebytes 64 -optimeout 2s > /dev/null
	@echo chaos-smoke ok

# Streaming-checker smoke: one live-backend cluster streams a 10^5-op
# history through the online windowed linearizability checker while it runs,
# under the race detector — verdict clean, frontier caught up, peak checker
# window bounded by the retirement window (not the history). This is the CI
# step that keeps the whole streaming pipeline honest end to end.
check-smoke:
	$(GO) test -race -count=1 -run TestCheckSmokeOnline -v .
	@echo check-smoke ok

# End-to-end smoke of the load generator on the live backend (its default):
# a small client-count sweep on two shards, consistency-checked per shard,
# plus one pipelined point (depth > 1) exercising the bounded-mailbox
# flow-control path.
liveload-smoke:
	$(GO) run ./cmd/liveload -clients 1,2,4 -ops 48 -shards 2 -keys 16 > /dev/null
	$(GO) run ./cmd/liveload -clients 4 -ops 64 -shards 1 -keys 8 -pipeline 4 > /dev/null
	@echo liveload-smoke ok

# End-to-end smoke of the same load generator on the net backend: the same
# sweep shape over actual loopback TCP sockets, plus one healing-partition
# point held at the sockets and one pipelined point.
netload-smoke:
	$(GO) run ./cmd/liveload -backend net -clients 1,2,4 -ops 48 -shards 2 -keys 16 > /dev/null
	$(GO) run ./cmd/liveload -backend net -clients 1 -ops 16 -shards 1 -keys 4 -faults partition@0:200 > /dev/null
	$(GO) run ./cmd/liveload -backend net -clients 4 -ops 64 -shards 1 -keys 8 -pipeline 4 > /dev/null
	@echo netload-smoke ok

# Telemetry smoke: a liveload -backend net sweep with -telemetry serving
# /metrics, scraped repeatedly while it runs — every scrape must be a
# well-formed Prometheus exposition with monotone counters
# (TestTelemetrySmoke), and the storage gauges a live run publishes must
# never exceed the final ioa watermark (TestTelemetryScrapeDuringLiveRun).
telemetry-smoke:
	$(GO) test -race -count=1 -run TestTelemetrySmoke ./cmd/liveload
	$(GO) test -race -count=1 -run TestTelemetryScrapeDuringLiveRun .
	@echo telemetry-smoke ok

# The repository benchmark (perfbench/, a module of its own that imports the
# store and both wall-clock runtimes): vet and test it, so a change to what it
# imports cannot leave it unbuildable. Nothing else in CI builds it.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...
	@echo perfbench-smoke ok

bench:
	$(GO) test -bench . -benchtime 1s .

# One iteration of the headline benchmark — fast enough for every CI run.
bench-smoke:
	$(GO) test -run NONE -bench Figure1Series -benchtime 1x .

# Hot-path micro-benchmarks (allocation-reporting) at measurement length.
bench-micro:
	$(GO) test -run NONE -bench $(MICRO_BENCH) -benchmem -benchtime 1s $(MICRO_PKGS)

# One iteration of every micro-benchmark — the CI smoke step that keeps the
# hot-path harnesses compiling and running.
bench-micro-smoke:
	$(GO) test -run NONE -bench $(MICRO_BENCH) -benchtime 1x $(MICRO_PKGS)

# Machine-readable perf record: runs the micro-benchmarks plus the
# experiment benchmarks (E9-E12, E14) and writes BENCH_<date>.json for the repository's
# perf trajectory. Override DATE to control the filename/stamp. Bench output
# is staged in a temp file so a failing benchmark run aborts the target
# instead of silently committing a partial baseline.
bench-json:
	$(GO) test -run NONE -bench $(MICRO_BENCH) -benchmem -benchtime 0.2s $(MICRO_PKGS) > bench-json.tmp
	$(GO) test -run NONE -bench 'E9|E10ShardedStore|E11FaultScenarios|E12LiveThroughput|E14OnlineCheck' -benchmem -benchtime 2x . >> bench-json.tmp
	$(GO) run ./cmd/benchjson -date $(DATE) < bench-json.tmp > BENCH_$(DATE).json
	@rm -f bench-json.tmp
	@echo wrote BENCH_$(DATE).json

# Short native-fuzzing passes over every fuzz target: the coding-theory
# kernels, the wire codec and compound splitter (the decoders that read
# untrusted bytes), and the online checker. One -fuzz pattern per run, as
# the fuzz engine requires.
fuzz-smoke:
	$(GO) test -run NONE -fuzz '^FuzzErasureRoundTrip$$' -fuzztime 10s ./internal/erasure
	$(GO) test -run NONE -fuzz '^FuzzMatrixInverse$$' -fuzztime 10s ./internal/gf
	$(GO) test -run NONE -fuzz '^FuzzWireRoundTrip$$' -fuzztime 10s ./internal/wire
	$(GO) test -run NONE -fuzz '^FuzzWireDecodeRobust$$' -fuzztime 10s ./internal/wire
	$(GO) test -run NONE -fuzz '^FuzzCompoundSplit$$' -fuzztime 10s ./internal/wire
	$(GO) test -run NONE -fuzz '^FuzzOnlineChecker$$' -fuzztime 10s ./internal/consistency

# Build every example and smoke-run each one (all finish in well under a
# second), so example rot is caught on push.
examples:
	$(GO) build ./examples/...
	@set -e; for d in examples/*/; do \
		echo "run $$d"; \
		$(GO) run ./$$d > /dev/null; \
	done

fmt:
	gofmt -w .

# Fails (with the offending file list) when any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Public-surface golden: the root package's full `go doc` output, committed
# as API.txt. apicheck fails with the diff when the surface drifts, so API
# changes are reviewed, not accidental; regenerate a deliberate change with
# apicheck-update.
apicheck:
	@$(GO) doc -all . > api-check.tmp || { rm -f api-check.tmp; exit 1; }; \
	if ! diff -u API.txt api-check.tmp; then \
		echo "public API drifted from API.txt; run 'make apicheck-update' if this is intended"; \
		rm -f api-check.tmp; exit 1; \
	fi; rm -f api-check.tmp
	@echo apicheck ok

apicheck-update:
	$(GO) doc -all . > API.txt
	@echo wrote API.txt

# Exactly what CI runs.
ci: build vet fmt-check apicheck race live-race chaos-smoke check-smoke liveload-smoke netload-smoke telemetry-smoke perfbench-smoke examples fuzz-smoke bench-smoke bench-micro-smoke
