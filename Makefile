GO ?= go

.PHONY: check vet staticcheck build test race race-gen race-serve race-sweep race-trace race-engine perfbench-check fuzz fuzz-smoke bench bench-fold bench-gen bench-engine bench-serve bench-sweep bench-trace bench-scale prof-trace golden golden-sweep

# The full gate: what CI runs — static checks, build, the race detector
# over every test, focused race passes over the parallel generator, the
# daemon, the sweep engine, the binary trace pipeline, the sub-shard
# analysis pipeline and the par worker pools, and short fuzz smokes
# of the CSV reader, the ingest endpoint, the sweep-spec parser, the
# binary trace round trip, the WAL payload decoder, the sketch,
# reservoir and accumulator snapshot decoders, the sketch's dense bucket
# store against the map store it replaced, the keyed accumulator add
# against Add, the incremental (HFINC01) and server (HFSRV01) snapshot
# decoders, and the fold's integer start instants against time.Time,
# plus the repo benchmark module's own checks.
check: vet staticcheck build race race-gen race-serve race-sweep race-trace race-engine fuzz-smoke perfbench-check

vet:
	$(GO) vet ./...

# staticcheck when installed; go vet (above) plus the race gate is the
# documented fallback, so a missing binary only prints a notice.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go vet + race cover the gate)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The sketch key oracle sweeps (bucket against the Pow oracle and
# against its exact slowBucket fallback) are single-goroutine float
# arithmetic, and the reach guard is a single-goroutine type-check of the
# module (~4 s plain, ~21 s under -race), so they run once without the
# race detector instead of under it.
race:
	$(GO) test -race -skip '^(TestSketchBucketMatches(PowOracle|SlowPath)|TestInternalExportsReached)$$' ./...
	$(GO) test -run '^TestSketchBucketMatches(PowOracle|SlowPath)$$' ./internal/streamstats
	$(GO) test -run '^TestInternalExportsReached$$' .

# Race smoke of the parallel/streaming generator specifically: the one
# block iterator over the par.Ordered pool behind Generate and Stream at
# 1 and 4+ workers, stream back-pressure, in-order block return, early
# close (goroutines released), the compact blocks' records against the
# reference path, and the unknown-system and rejected-catalog error
# paths (the epoch-nanosecond window bounds among them) under the race
# detector.
race-gen:
	$(GO) test -race -run 'Workers|Stream|Subset|Compact|ValidateCatalog' ./internal/lanl

# Race pass over the daemon and its client: concurrent ingest, queries
# against copy-on-write snapshots, drain/shutdown, crash recovery and
# the flat live heap across append/result cycles, all under the race
# detector.
race-serve:
	$(GO) test -race ./internal/serve/...

# Race pass over the sweep engine's worker pool and the byte-identity
# matrix (workers x seeds), plus the CLI golden at several worker counts.
race-sweep:
	$(GO) test -race -run 'Workers|Golden' ./internal/sweep ./cmd/sweep

# Race pass over the binary trace pipeline: the format round trip, the
# encode and decode pools (frames written and blocks returned in
# submission order on the caller's goroutine, poison and I/O errors,
# early close), the parallel generator feeding the binary writer at
# workers 1/4/8 (the byte-identity matrix in
# TestRunBinaryFormatMatchesCSV), and the format-sniffing readers.
race-trace:
	$(GO) test -race ./internal/tracefmt
	$(GO) test -race -run 'Binary|Workers|Stream' ./cmd/lanlgen ./cmd/failstat

# Race pass over the sub-shard analysis pipeline: the workers x seeds
# byte-identity matrix for fleet and stream, the dispatch-order
# identities, the shared stream fold (batched fan-in identity against
# the inline incremental fold, the record-source adapter, incremental
# appends at every chunking — which also pins the per-slot shard cache
# against one-record appends — stream edge cases, and the prep
# goroutine stopped on every early return), the per-call fit table (dedup across shards, interning,
# hash-collision handling) whose slots par.Each workers fill, the fit
# samples each fit task builds and drops (at most one per worker with
# intervals off, every fit and interval unchanged with them on), and the
# counter-seeded bootstrap partition-invariance tests; then the par
# worker pools every fan-out runs on, repeated because their tests race
# randomized job timings.
race-engine:
	$(GO) test -race -run 'SubShard|DispatchOrder|Partition|RepSeed|BatchIdentity|IncrementalMatches|AnalyzeStreamEdge|AnalyzeStreamStops|FitTable|FitSamples|MemoDetects|Intern' ./internal/engine ./internal/dist
	$(GO) test -race -count=10 ./internal/par

# perfbench is its own module, so the root go test ./... never reaches
# its tests: they prove a dropped record, a flipped digest and a refused
# ingest each fail the benchmark.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

fuzz:
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=30s ./internal/failures

# A 10-second fuzz pass per target, cheap enough for every check run.
# go test accepts one -fuzz pattern per invocation, hence one run each.
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=10s -run=^$$ ./internal/failures
	$(GO) test -fuzz=FuzzIngestHandler -fuzztime=10s -run=^$$ ./internal/serve
	$(GO) test -fuzz=FuzzParseSweepSpec -fuzztime=10s -run=^$$ ./internal/sweep
	$(GO) test -fuzz=FuzzTraceRoundTrip -fuzztime=10s -run=^$$ ./internal/tracefmt
	$(GO) test -fuzz=FuzzWALPayload -fuzztime=10s -run=^$$ ./internal/serve
	$(GO) test -fuzz=FuzzSketchSnapshot -fuzztime=10s -run=^$$ ./internal/streamstats
	$(GO) test -fuzz=FuzzSketchAdd -fuzztime=10s -run=^$$ ./internal/streamstats
	$(GO) test -fuzz=FuzzReservoirSnapshot -fuzztime=10s -run=^$$ ./internal/streamstats
	$(GO) test -fuzz=FuzzAccumulatorSnapshot -fuzztime=10s -run=^$$ ./internal/streamstats
	$(GO) test -fuzz=FuzzAccumulatorAddKeyed -fuzztime=10s -run=^$$ ./internal/streamstats
	$(GO) test -fuzz=FuzzIncrementalSnapshot -fuzztime=10s -run=^$$ ./internal/engine
	$(GO) test -fuzz=FuzzInstantSub -fuzztime=10s -run=^$$ ./internal/engine
	$(GO) test -fuzz=FuzzServerSnapshot -fuzztime=10s -run=^$$ ./internal/serve

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# The per-record fold hot path without perfbench: one sketch key of an
# interarrival or repair value at eps 0.01 (the cell table) and 1e-4
# (slowBucket), one Accumulator.Add (perfbench's streamstats.add_ns),
# one record through the inline engine fold at 2 and 4 shards per
# record, on system-grouped and time-sorted traces, and one record
# through a whole two-stage AnalyzeStream pass as trace-scan runs it.
bench-fold:
	$(GO) test -bench='SketchKey|AccumulatorAdd|FoldAdd|AnalyzeStream' -benchmem -run=^$$ ./internal/streamstats ./internal/engine

# The generator without perfbench: one whole Generate at rate scales
# 0.25, 1 and 4, and one drain of a rate-scale-25 Stream, reported per
# record, each with its bytes allocated.
bench-gen:
	$(GO) test -bench='^BenchmarkGenerate$$' -benchmem -run=^$$ .
	$(GO) test -bench='^BenchmarkStream$$' -benchmem -run=^$$ ./internal/lanl

# The bench-*, bench-scale and prof-trace targets run one cmd/bench
# binary, built with -buildvcs=true so each report's header names the
# commit it was measured at (plain go run stamps nothing, and the header
# then says "unknown"). The binary is built before any report is written
# and rebuilt only when a Go source changes: one built after an earlier
# target had rewritten a tracked BENCH_*.json would stamp
# vcs_modified: true on every later report.
BENCH := bin/bench
BENCH_SOURCES := go.mod $(shell find . -name '*.go' -not -name '*_test.go' -not -path './perfbench/*' -not -path './.bench_build/*')

$(BENCH): $(BENCH_SOURCES)
	$(GO) build -buildvcs=true -o $@ ./cmd/bench

# Sequential-vs-parallel engine wall clock; refreshes BENCH_engine.json.
bench-engine: $(BENCH)
	$(BENCH) engine

# Daemon over loopback HTTP: concurrent ingest throughput plus /result
# latency under live appends; refreshes BENCH_serve.json.
bench-serve: $(BENCH)
	$(BENCH) serve

# Sweep engine at one worker vs every core, with a byte-identity check
# before timing; refreshes BENCH_sweep.json.
bench-sweep: $(BENCH)
	$(BENCH) sweep

# Trace I/O paths — fused generator->engine, CSV and binary write and
# scan-analyze, and the materialized CSV baseline — with a streaming
# result-identity check and the streamed-vs-materialized agreement
# before reporting; refreshes BENCH_trace.json.
bench-trace: $(BENCH)
	$(BENCH) trace

# The scaling sweep: the parallel benchmarks at GOMAXPROCS 1, 2, 4 and
# 8. bench engine takes the whole list in one run (it records the
# workers x GOMAXPROCS matrix itself); the others are re-run per
# GOMAXPROCS into bench_scale/ so the committed BENCH_*.json files keep
# the default-configuration run. bench_scale/ is gitignored: the sweep
# describes the box it ran on, so it is quoted in EXPERIMENTS.md with
# that box named rather than committed. bench trace runs at a reduced
# scale per point — the full default dataset takes minutes per
# GOMAXPROCS.
bench-scale: $(BENCH)
	mkdir -p bench_scale
	$(BENCH) engine -gomaxprocs 1,2,4,8 -out bench_scale/BENCH_engine_scale.json
	for p in 1 2 4 8; do \
		GOMAXPROCS=$$p $(BENCH) sweep -out bench_scale/BENCH_sweep_p$$p.json && \
		GOMAXPROCS=$$p $(BENCH) trace -scale 20 -out bench_scale/BENCH_trace_p$$p.json || exit 1; \
	done

# CPU and heap profiles of the trace pipeline (the parallel codec plus
# the batched engine fan-in) into the gitignored prof/; uses a scratch
# -out so the committed BENCH_trace.json is not skewed by profiler
# overhead.
prof-trace: $(BENCH)
	mkdir -p prof
	$(BENCH) trace -scale 20 -cpuprofile prof/trace_cpu.pprof \
		-memprofile prof/trace_mem.pprof -out prof/BENCH_trace_prof.json
	@echo "profiles in prof/: go tool pprof prof/trace_cpu.pprof"

# Rewrite the cmd/reproduce golden file after a reviewed output change.
golden:
	$(GO) test ./cmd/reproduce -run TestReproduceGolden -update

# Rewrite the cmd/sweep golden file after a reviewed output change.
golden-sweep:
	$(GO) test ./cmd/sweep -run TestSweepGolden -update
