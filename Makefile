GO ?= go

.PHONY: all build vet lint test test-full bench bench-smoke perf-smoke race fuzz fuzz-index serve chaos-smoke cluster-smoke examples clean

# Default: build everything, lint, and run the fast test suite.
all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Lint: vet (the root module, then perf/, which has its own go.mod and so
# is out of reach of the root `go vet ./...`) plus a gofmt check that fails
# on any unformatted file.
lint: vet
	cd perf && $(GO) vet ./...
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
# fault/cancellation paths, the traced/metered route path (concurrent
# routes sharing one tracer and registry live in ./internal/core and
# ./internal/obs), the concurrent routing service and its drills, the gcr
# command, and the public API (verifier always on there). TestMulticoreDigestProperty runs
# here under -short: it routes at Workers 1, 2 and 8 and is the test that
# puts the parallel best-partner searches under the race detector.
race:
	$(GO) test -race -short ./internal/core/... ./internal/obs/... ./internal/activity/... ./internal/serve/... ./internal/cluster/... ./internal/drill/... ./internal/sieve/... ./cmd/gcr/... ./cmd/gcrd/... .

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

# Chaos smoke under -race: panic isolation in serve (worker executions and
# the handler middleware), then the node drill — a deterministic fault
# schedule (injected panics, 5xx bursts, latency) through the resilient
# client, a kill/drain window, and one snapshot/restart cycle — as a test
# and as the loadclient -chaos run that writes bin/BENCH_chaos.json. Both
# hold the drill to the same Report.Check. Its counts vary from run to
# run, so the smoke leaves the checked-in BENCH_chaos.json alone: that file
# is the reviewed record, re-recorded on purpose (copy bin/BENCH_chaos.json
# over it).
chaos-smoke:
	$(GO) test -race -run 'TestPanicIsolation|TestHandlerPanicRecovered' -count=1 ./internal/serve
	$(GO) test -race -run 'TestNodeDrill' -count=1 ./internal/drill
	mkdir -p bin
	$(GO) run -race ./examples/loadclient -chaos -n 300 -json bin/BENCH_chaos.json

# Cluster smoke under -race: failover and hand-back in cluster, the
# warm-restart peer-fetch test and the three-phase cluster drill
# in-process, then a multi-process run — front tier driving two gcrd
# subprocesses over loopback with a mid-load kill — writing
# bin/BENCH_cluster.json. The drill test and the loadclient run hold the
# report to the same Report.Check (every request answered, no tree-digest
# divergence, rebalance + hand-back observed, L1 and L2 hits). The
# checked-in BENCH_cluster.json is the reviewed record, re-recorded on
# purpose (copy bin/BENCH_cluster.json over it), never by the smoke.
cluster-smoke:
	$(GO) test -race -run 'TestClusterFailoverAndHandback' -count=1 ./internal/cluster
	$(GO) test -race -run 'TestClusterDrill|TestClusterWarmRestartPeerFetch' -count=1 ./internal/drill
	$(GO) build -race -o bin/gcrd ./cmd/gcrd
	$(GO) run -race ./examples/loadclient -cluster -shards 2 -gcrd bin/gcrd -n 300 -c 4 -json bin/BENCH_cluster.json

# Runs every example but loadclient (the drill driver, which chaos-smoke
# and cluster-smoke run). Each exits non-zero on an error or a failed
# check, and the first failure stops the target: examples/distributed,
# for one, checks its shared registry's core_merges_total against the
# routes' summed Stats.Merges.
EXAMPLES := quickstart distributed activitysweep cpudesign traceworkload
examples:
	@set -e; for ex in $(EXAMPLES); do echo "== examples/$$ex"; $(GO) run ./examples/$$ex; done

clean:
	$(GO) clean ./...
