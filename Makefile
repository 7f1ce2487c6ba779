GO ?= go

.PHONY: all build vet lint test test-full bench bench-smoke perf-smoke race fuzz fuzz-index serve loadtest chaos-smoke cluster-smoke clean

# Default: build everything, lint, and run the fast test suite.
all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Lint: vet plus a gofmt check that fails on any unformatted file.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Fast suite (-short trims the golden r1-r5 equivalence run to r1-r2).
test:
	$(GO) test -short ./...

# Full suite, including the r1-r5 golden bit-identity tests.
test-full:
	$(GO) test ./...

# Router benchmarks with the fast-path counters as custom metrics. The
# end-to-end benchmark, with repeats and spreads, is `bash perf/run.sh`.
bench:
	$(GO) test -run xxx -bench 'BenchmarkRoute|BenchmarkConstructScaling|BenchmarkConstructMulticore' -benchmem .

# CI smoke: one iteration of the routing benchmarks, the allocation
# ceilings at N=1024/4096, and at N=16384 the p90 candidates-per-search
# budget, the 228·N cap on candidates and 195·N cap on regions visited
# (region gaps measured to cell rectangles instead of the occupants'
# boxes, bounds blind to the merged enable, stale region floors or
# cell-rounded region distances fail them), plus the 8·N cap on index
# searches (a return to eager per-merge rescans fails it), and the
# pair-evaluation caps of the schedules that once scanned all pairs: 10·N
# on r5 buffered (nearest-neighbour rounds) and 25·N on r2 activity-driven
# (an all-pairs scan reads thousands·N). Catches gross ns/op, allocs/op,
# candidate-bound, search-count and quadratic-scan regressions without
# paying for a statistically meaningful benchmark run.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkRoute$$|BenchmarkConstructScaling/N=(128|1024)$$' -benchtime 1x -benchmem .
	$(GO) test -run 'TestRouteAllocationCeiling|TestCandidateBudget16k|TestPairEvalBudget' .

# Benchmark smoke: the perf module's tests (its own go.mod, so the root
# `go test ./...` skips it) run every workload at tiny scale and check the
# seed-1 pinned tree digests of route-mix, serve-cold and cluster-zipf.
perf-smoke:
	cd perf && $(GO) test ./...

# Race detector over the packages with Workers > 1 parallel scans, the
# fallback/cancellation paths, the traced/metered route path (concurrent
# routes sharing one tracer and registry live in ./internal/core and
# ./internal/obs), the concurrent routing service, the gcr command, and the
# public API (verifier always on there). TestMulticoreDigestProperty runs
# here under -short: it routes at Workers 1, 2 and 8 and is the test that
# puts the parallel best-partner searches under the race detector.
race:
	$(GO) test -race -short ./internal/core/... ./internal/obs/... ./internal/activity/... ./internal/serve/... ./internal/cluster/... ./internal/lru/... ./cmd/gcr/... ./cmd/gcrd/... .

# Short mutation runs over every fuzz target. The checked-in seed corpora
# (r1-r5 serializations among them) already run as unit cases in `make test`;
# this additionally explores mutated inputs for FUZZTIME each.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run xxx -fuzz FuzzRead -fuzztime $(FUZZTIME) ./internal/bench
	$(GO) test -run xxx -fuzz FuzzReadTrace -fuzztime $(FUZZTIME) ./internal/stream
	$(GO) test -run xxx -fuzz FuzzArc -fuzztime $(FUZZTIME) ./internal/geom
	$(GO) test -run xxx -fuzz FuzzMergeRegion -fuzztime $(FUZZTIME) ./internal/geom
	$(GO) test -run xxx -fuzz FuzzDecodeRouteRequest -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run xxx -fuzz FuzzCacheSnapshot -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run xxx -fuzz FuzzSpatialIndex -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzRoute -fuzztime $(FUZZTIME) .

# CI fuzz step: explores the spatial index's invariants (exact region
# floors, point-to-region gaps at any grid origin) beyond the seed corpus.
fuzz-index:
	$(GO) test -run '^$$' -fuzz '^FuzzSpatialIndex$$' -fuzztime 15s ./internal/core/

# Run the routing daemon locally (POST /v1/route, /healthz, /metrics).
serve:
	$(GO) run ./cmd/gcrd -addr localhost:8080

# In-process load test: mixed hit/miss/invalid traffic through the full
# queue -> coalescer -> cache -> worker pipeline, with client tallies
# cross-checked against the server's serve_* counters.
loadtest:
	$(GO) run ./examples/loadclient -n 400 -c 16

# Chaos smoke under -race: a short deterministic fault schedule (injected
# panics, 5xx bursts, latency) through the resilient client, a kill/drain
# window, and one snapshot/restart cycle — the acceptance assertions live
# in the harness test and the loadclient -chaos run writes BENCH_chaos.json.
chaos-smoke:
	$(GO) test -race -run 'TestChaosHarnessEndToEnd|TestPanicIsolation|TestBatchPartialFailure' -count=1 ./internal/serve
	$(GO) run -race ./examples/loadclient -chaos -n 300 -json BENCH_chaos.json

# Cluster smoke under -race: the warm-restart peer-fetch drill and the full
# three-phase harness test in-process, then a multi-process run — front tier
# driving two real gcrd subprocesses over loopback with a mid-load kill —
# writing BENCH_cluster.json. The acceptance bar (zero client-visible loss
# in the kill window, no tree-digest divergence, rebalance + hand-back
# observed) is enforced by the harness test and the loadclient run alike.
cluster-smoke:
	$(GO) test -race -run 'TestClusterWarmRestart|TestClusterHarnessEndToEnd|TestClusterFailoverAndHandback' -count=1 ./internal/cluster
	$(GO) build -race -o bin/gcrd ./cmd/gcrd
	$(GO) run -race ./examples/loadclient -cluster -shards 2 -gcrd bin/gcrd -n 300 -c 4 -json BENCH_cluster.json

clean:
	$(GO) clean ./...
