package drill

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/serve"
)

// NodeConfig sizes the node drill.
type NodeConfig struct {
	// Requests is the chaos phase's request count (0 = 300).
	Requests int
	// Concurrency is the chaos and restart phases' parallel clients
	// (0 = 8).
	Concurrency int
}

// nodeChaos is the chaos phase's fault schedule; its periods count route
// executions (panics, errors, latency) and response writes (slow).
var nodeChaos = serve.Chaos{
	Seed:        42,
	PanicPeriod: 25, ErrorPeriod: 25,
	LatencyPeriod: 50, Latency: 500 * time.Microsecond,
	SlowPeriod: 50, Slow: 200 * time.Microsecond,
}

// nodeCounters are the server and client counters a node report records.
var nodeCounters = []string{
	"serve_panics_total", "serve_injected_panics_total", "serve_injected_errors_total",
	"serve_injected_latency_total", "serve_injected_slow_total",
	"serve_snapshot_saves_total", "serve_snapshot_loaded_total",
	"client_retries_total", "client_breaker_opens_total", "client_breaker_fastfail_total",
}

// Node runs the node drill against the real routing pipeline:
//
//  1. chaos — Requests through a retrying client against a server
//     injecting panics, errors and latency on nodeChaos's schedule;
//  2. kill — the server drains (ending in its on-drain snapshot) while 12
//     cold requests arrive, each with a 50 ms deadline; the draining
//     server's 503s open the client's breaker;
//  3. restart — a fresh server loads the snapshot and the chaos phase's
//     distinct bodies are replayed against it.
//
// The servers and clients share one registry, so the report's counters
// span the restart.
func Node(cfg NodeConfig) (*Report, error) {
	if cfg.Requests <= 0 {
		cfg.Requests = 300
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	dir, err := os.MkdirTemp("", "drill-node-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "cache.snap")
	r := newRun("node", nodeCounters)
	bodies := distinctBodies(48, 1000)

	srv := serve.New(serve.Config{Chaos: nodeChaos, SnapshotPath: snap, SnapshotInterval: -1, Metrics: r.reg})
	client := &serve.Client{
		Transport:   serve.HandlerTransport(srv.Handler()),
		MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		Metrics: r.reg,
	}
	r.phase(traffic{name: "chaos", client: client, bodies: bodies, n: cfg.Requests, conc: cfg.Concurrency})

	// The kill bodies are digests the cache has never seen: a draining
	// server still answers cached digests, and only refused work counts
	// against the breaker. The tight deadline turns each 503's Retry-After
	// into an immediate failure instead of a one-second wait.
	drained := make(chan error, 1)
	drain := func() {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			drained <- srv.Shutdown(ctx)
		}()
		for !srv.Draining() {
			time.Sleep(100 * time.Microsecond)
		}
	}
	r.phase(traffic{name: "kill", client: client, bodies: distinctBodies(12, 9000), n: 12, conc: 1,
		timeout: 50 * time.Millisecond, fault: drain})
	if err := <-drained; err != nil {
		return nil, fmt.Errorf("drill: drain: %w", err)
	}

	srv2 := serve.New(serve.Config{SnapshotPath: snap, SnapshotInterval: -1, Metrics: r.reg})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
	}()
	for srv2.Readiness() != "ready" { // wait out the snapshot load
		time.Sleep(100 * time.Microsecond)
	}
	client2 := &serve.Client{Transport: serve.HandlerTransport(srv2.Handler()), Metrics: r.reg}
	r.phase(traffic{name: "restart", client: client2, bodies: bodies, n: len(bodies), conc: cfg.Concurrency})
	return r.finish(), nil
}

// checkNode is the node drill's bar: no failure but the injected ones,
// at least 99% availability outside them, every injected panic recovered
// and counted, retries and the breaker exercised, and a warm restart.
func (r *Report) checkNode(fail func(string, ...any)) {
	chaos, restart, c := r.Phases[0], r.Phases[2], r.Counters
	if n := chaos.Shed + chaos.Failed; n != 0 {
		fail("%d non-injected failures in the chaos phase", n)
	}
	if avail := float64(chaos.OK) / float64(max(1, chaos.Requests-chaos.Injected)); avail < 0.99 {
		fail("chaos-phase availability %.4f < 0.99", avail)
	}
	if p := c["serve_panics_total"]; p == 0 || p != c["serve_injected_panics_total"] {
		fail("panics injected %d, recovered %d", c["serve_injected_panics_total"], p)
	}
	if c["serve_injected_errors_total"] == 0 || c["client_retries_total"] == 0 {
		fail("injected errors %d, client retries %d: the retry path never ran",
			c["serve_injected_errors_total"], c["client_retries_total"])
	}
	if c["serve_snapshot_saves_total"] < 1 {
		fail("no snapshot saved on drain")
	}
	if c["client_breaker_opens_total"] < 1 || c["client_breaker_fastfail_total"] < 1 {
		fail("breaker opened %d times, fast-failed %d: it never shielded the draining server",
			c["client_breaker_opens_total"], c["client_breaker_fastfail_total"])
	}
	if restart.OK == 0 || restart.Cached == 0 {
		fail("restart replayed %d, %d from the cache: want a warm restart", restart.OK, restart.Cached)
	}
	if c["serve_snapshot_loaded_total"] == 0 {
		fail("the restarted server loaded no snapshot entries")
	}
}
