// Command loadclient fires a mixed (hit/miss/invalid) request load at an
// in-process serve.Server and cross-checks the client-side tallies against
// the server's own serve_* counters — the end-to-end smoke for the daemon
// pipeline (queue → coalescer → cache → workers), also runnable under
// -race via the corresponding test in internal/serve.
//
// With -json it additionally writes a summary (requests/sec, p50/p99
// latency at the configured queue depth). The mix is mostly cache hits, so
// the summary is a smoke record, not a benchmark: serving latency is
// measured by perf/'s serve-cold and cluster-zipf workloads.
//
// With -chaos it instead runs the full chaos harness — a seeded schedule
// of injected worker panics, 5xx errors and latency against the real
// routing pipeline, a kill/drain window driving the resilient client's
// circuit breaker open, and one snapshot/restart cycle — enforcing the
// acceptance bar (zero crashes, ≥99% non-injected success, every panic
// recovered and counted, warm post-restart cache) and writing the
// BENCH_chaos.json record via -json.
//
// With -cluster it runs the cluster harness instead: a consistent-hash
// front tier over N shard backends (in-process by default; real gcrd
// subprocesses over loopback with -gcrd) through a healthy phase, a
// kill-one-shard-mid-load phase that must lose no client-visible request,
// and a warm-restart recovery phase — writing the BENCH_cluster.json
// record via -json.
//
// Usage:
//
//	go run ./examples/loadclient -n 400 -c 16
//	go run ./examples/loadclient -n 400 -c 32 -depth 64 -json serve.json
//	go run ./examples/loadclient -chaos -n 300 -json BENCH_chaos.json
//	go run ./examples/loadclient -cluster -shards 3 -n 400 -json BENCH_cluster.json
//	go run ./examples/loadclient -cluster -shards 2 -gcrd bin/gcrd -n 300
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	n := flag.Int("n", 400, "total requests to send")
	conc := flag.Int("c", 16, "concurrent clients")
	workers := flag.Int("workers", 0, "server worker pool (0 = GOMAXPROCS)")
	depth := flag.Int("depth", 64, "server admission queue depth")
	jsonOut := flag.String("json", "", "also write a benchmark summary JSON to this file")
	chaos := flag.Bool("chaos", false, "run the chaos harness (fault injection + kill window + warm restart) instead of the plain load test")
	clusterMode := flag.Bool("cluster", false, "run the cluster harness (front tier + shards, kill-one-shard phase, warm-restart recovery) instead of the plain load test")
	shards := flag.Int("shards", 3, "shard count for -cluster")
	gcrdBin := flag.String("gcrd", "", "path to a gcrd binary: run -cluster shards as real subprocesses over loopback (empty = in-process)")
	flag.Parse()
	var err error
	switch {
	case *chaos && *clusterMode:
		err = fmt.Errorf("-chaos and -cluster are mutually exclusive: pick one harness")
	case *chaos:
		err = runChaos(os.Stdout, *n, *conc, *workers, *depth, *jsonOut)
	case *clusterMode:
		err = runCluster(os.Stdout, *n, *conc, *shards, *gcrdBin, *jsonOut)
	default:
		err = run(os.Stdout, *n, *conc, *workers, *depth, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadclient:", err)
		os.Exit(1)
	}
}

// runCluster drives cluster.RunClusterHarness and enforces the cluster
// acceptance criteria: a kill phase with zero client-visible loss, no
// tree-digest divergence anywhere, and an observed rebalance + hand-back.
func runCluster(w *os.File, n, conc, shards int, gcrdBin, jsonOut string) error {
	rep, err := cluster.RunClusterHarness(cluster.HarnessConfig{
		Shards:          shards,
		GcrdBin:         gcrdBin,
		Requests:        n / 2,
		KillRequests:    n / 4,
		RecoverRequests: n / 4,
		Concurrency:     conc,
		// Size the front-tier L1 between the healthy-phase pool and the
		// larger kill/recovery pool so the recorded run exercises the whole
		// ladder: L1 absorbs the healthy repeats, while the wider pools
		// spill to shard L2 and to peer fetch during the warm restart.
		L1Size: max(8, n/10),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(w, format+"\n", args...)
		},
	})
	if err != nil {
		return fmt.Errorf("cluster harness: %w", err)
	}
	mode := "in-process shards"
	if rep.MultiProcess {
		mode = "gcrd subprocesses"
	}
	fmt.Fprintf(w, "cluster: %d shards (%s) — l1 %.1f%%  l2 %.1f%%  peer %.1f%% of %d requests\n",
		rep.Shards, mode, rep.L1HitRate*100, rep.L2HitRate*100, rep.PeerHitRate*100,
		rep.L1Hits+rep.L2Hits+rep.PeerHits+rep.Forwards)
	fmt.Fprintf(w, "  failovers %d  rebalances %d  handbacks %d  kill-phase failures %d\n",
		rep.Failovers, rep.Rebalances, rep.Handbacks, rep.KillPhaseFailed)
	for _, ph := range rep.Phases {
		fmt.Fprintf(w, "  phase %-8s %4d req  %.0f req/s  p50 %.2fms  p99 %.2fms\n",
			ph.Name, ph.Requests, ph.RPS, ph.P50Ms, ph.P99Ms)
	}

	var bad []string
	if rep.KillPhaseFailed != 0 {
		bad = append(bad, fmt.Sprintf("%d client-visible failures during the kill phase", rep.KillPhaseFailed))
	}
	if len(rep.DigestConflicts) != 0 {
		bad = append(bad, fmt.Sprintf("tree digest conflicts: %v", rep.DigestConflicts))
	}
	if rep.Rebalances == 0 {
		bad = append(bad, "no rebalance observed")
	}
	if rep.Handbacks == 0 {
		bad = append(bad, "no hand-back observed")
	}
	if len(bad) > 0 {
		return fmt.Errorf("cluster acceptance failed: %v", bad)
	}
	fmt.Fprintln(w, "  cluster acceptance: PASS")

	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		out := map[string]any{
			"description": "cluster harness: consistent-hash front tier + shards through healthy, kill-one-shard and warm-restart phases",
			"gomaxprocs":  runtime.GOMAXPROCS(0),
			"clients":     conc,
			"report":      rep,
		}
		if err := enc.Encode(out); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote cluster report to %s\n", jsonOut)
	}
	return nil
}

// runChaos drives serve.RunChaosHarness over the real routing pipeline and
// enforces the chaos acceptance criteria on its report.
func runChaos(w *os.File, n, conc, workers, depth int, jsonOut string) error {
	dir, err := os.MkdirTemp("", "gcr-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rep, err := serve.RunChaosHarness(serve.ChaosHarnessConfig{
		Requests:    n,
		Concurrency: conc,
		Workers:     workers,
		QueueDepth:  depth,
		Chaos: serve.Chaos{
			Seed:        42,
			PanicPeriod: 25, ErrorPeriod: 25,
			LatencyPeriod: 50, Latency: 500 * time.Microsecond,
			SlowPeriod: 50, Slow: 200 * time.Microsecond,
		},
		SnapshotPath: filepath.Join(dir, "cache.snap"),
		MaxAttempts:  4,
		Bodies:       serve.DistinctBodies(48, 1000),
		KillBodies:   serve.DistinctBodies(12, 9000),
	})
	if err != nil {
		return fmt.Errorf("chaos harness: %w", err)
	}

	fmt.Fprintf(w, "chaos: %d requests — ok %d, injected-final %d, other failures %d (availability %.4f)\n",
		rep.Requests, rep.OK, rep.InjectedFinal, rep.OtherFailures, rep.Availability)
	fmt.Fprintf(w, "  injected: %d panics  %d errors  %d latency  %d slow — recovered panics %d, client retries %d\n",
		rep.InjectedPanics, rep.InjectedErrors, rep.InjectedLatency, rep.InjectedSlow, rep.ServerPanics, rep.Retries)
	fmt.Fprintf(w, "  kill window: breaker opened %d×, fast-failed %d of %d requests; snapshot saves %d\n",
		rep.BreakerOpens, rep.BreakerFastFails, rep.KillRequests, rep.SnapshotSaves)
	fmt.Fprintf(w, "  warm restart: loaded %d entries, replay hit rate %.2f over %d digests\n",
		rep.SnapshotLoaded, rep.PostRestartHitRate, rep.Replayed)

	var bad []string
	if rep.OtherFailures != 0 {
		bad = append(bad, fmt.Sprintf("%d non-injected failures", rep.OtherFailures))
	}
	if rep.Availability < 0.99 {
		bad = append(bad, fmt.Sprintf("availability %.4f < 0.99", rep.Availability))
	}
	if rep.ServerPanics == 0 || rep.ServerPanics != rep.InjectedPanics {
		bad = append(bad, fmt.Sprintf("panics injected %d vs recovered %d", rep.InjectedPanics, rep.ServerPanics))
	}
	if rep.PostRestartHitRate <= 0 {
		bad = append(bad, "post-restart cache hit rate is zero")
	}
	if len(bad) > 0 {
		return fmt.Errorf("chaos acceptance failed: %v", bad)
	}
	fmt.Fprintln(w, "  chaos acceptance: PASS")

	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote chaos report to %s\n", jsonOut)
	}
	return nil
}

func run(w *os.File, n, conc, workers, depth int, jsonOut string) error {
	srv := serve.New(serve.Config{Workers: workers, QueueDepth: depth, CacheSize: 64})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	// Mix: half identical (cache/coalesce bait), ~40% distinct misses,
	// ~10% invalid.
	gen := &serve.LoadGen{
		Handler:     srv.Handler(),
		Bodies:      serve.MixedBodies(10, 8, 2),
		Total:       n,
		Concurrency: conc,
	}
	st, err := gen.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "sent %d requests (%d clients) in %v — %.0f req/s\n",
		st.Total, conc, st.Elapsed.Round(time.Millisecond), st.RequestsPerSec())
	fmt.Fprintf(w, "  ok %d (cached %d, coalesced %d)   shed %d   bad %d   other %d\n",
		st.OK, st.Cached, st.Coalesced, st.Shed, st.BadReq, st.Other)
	fmt.Fprintf(w, "  latency p50 %v  p99 %v\n",
		st.LatencyQuantile(0.50).Round(time.Microsecond), st.LatencyQuantile(0.99).Round(time.Microsecond))

	// Cross-check the server's counters against the client-side tally.
	snap := srv.Metrics().Snapshot()
	counter := func(name string) int64 { return snap[name].Value }
	checks := []struct {
		name   string
		server int64
		client int64
	}{
		{"serve_cache_hits_total", counter("serve_cache_hits_total"), int64(st.Cached)},
		{"serve_coalesced_total", counter("serve_coalesced_total"), int64(st.Coalesced)},
		{"serve_shed_total", counter("serve_shed_total"), int64(st.Shed)},
		{"serve_bad_requests_total", counter("serve_bad_requests_total"), int64(st.BadReq)},
	}
	failed := false
	for _, c := range checks {
		mark := "ok"
		if c.server != c.client {
			mark = "MISMATCH"
			failed = true
		}
		fmt.Fprintf(w, "  %-26s server %5d  client %5d  %s\n", c.name, c.server, c.client, mark)
	}
	if len(st.Conflicts) > 0 {
		failed = true
		fmt.Fprintf(w, "  TREE DIGEST CONFLICTS: %v\n", st.Conflicts)
	}
	if !st.RetryAfterSeen {
		failed = true
		fmt.Fprintln(w, "  429 response without Retry-After header")
	}
	if failed {
		return fmt.Errorf("server counters disagree with client tally")
	}
	fmt.Fprintln(w, "  all counters consistent, all tree digests bit-identical")

	if jsonOut != "" {
		if err := writeBenchJSON(jsonOut, srv.Metrics(), st, conc, depth); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote benchmark summary to %s\n", jsonOut)
	}
	return nil
}

// writeBenchJSON emits the serve-layer benchmark record: client-observed
// throughput and exact latency quantiles, plus the server-side histogram
// estimates for comparison.
func writeBenchJSON(path string, reg *obs.Registry, st *serve.LoadStats, conc, depth int) error {
	snap := reg.Snapshot()
	rec := map[string]any{
		"description":      "serve daemon load test: mixed hit/miss/invalid requests through queue → coalescer → cache → workers",
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"clients":          conc,
		"queue_depth":      depth,
		"requests":         st.Total,
		"requests_per_sec": st.RequestsPerSec(),
		"latency_ms": map[string]float64{
			"p50": float64(st.LatencyQuantile(0.50)) / 1e6,
			"p99": float64(st.LatencyQuantile(0.99)) / 1e6,
		},
		"outcomes": map[string]int{
			"ok": st.OK, "cached": st.Cached, "coalesced": st.Coalesced,
			"shed": st.Shed, "bad_request": st.BadReq,
		},
		"server_counters": map[string]int64{
			"serve_cache_hits_total":   snap["serve_cache_hits_total"].Value,
			"serve_cache_misses_total": snap["serve_cache_misses_total"].Value,
			"serve_coalesced_total":    snap["serve_coalesced_total"].Value,
			"serve_shed_total":         snap["serve_shed_total"].Value,
		},
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
