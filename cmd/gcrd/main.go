// Command gcrd is the gated-clock routing daemon: a long-lived HTTP JSON
// service over the library's zero-skew gated routing, with a fixed worker
// pool, a bounded admission queue with 429/Retry-After backpressure, a
// singleflight coalescer for identical in-flight requests, and a
// digest-keyed SIEVE result cache.
//
// Usage:
//
//	gcrd -addr localhost:8080                       # defaults
//	gcrd -addr :8080 -workers 4 -queue 64 -cache 256
//	gcrd -addr :8080 -verify                        # verify every cache miss
//	gcrd -addr :8080 -snapshot /var/lib/gcrd/cache.snap  # warm restarts
//	gcrd -addr :8080 -chaos seed=42,panic=200,error=100  # fault injection
//
//	curl -s localhost:8080/v1/route -d '{"benchmark":"r1"}'
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/readyz
//	curl -s localhost:8080/metrics                  # this process's own registry
//
// With -cluster, gcrd runs as the routing cluster's front tier instead of
// a shard: it consistent-hashes each request's canonical digest onto the
// listed shard gcrds, keeps its own L1 result cache, forwards each L1 miss
// to the owning shard (whose cache answers repeats), and aggregates the
// shards' /readyz. Its /metrics carries only its own cluster_* series;
// scrape each shard for serve_*:
//
//	gcrd -addr :8080 -cluster http://127.0.0.1:9101,http://127.0.0.1:9102
//
// SIGINT/SIGTERM drain gracefully: new work is refused with 503 while
// queued and in-flight routes run to completion (bounded by -grace); with
// -snapshot configured the drain ends by writing the cache snapshot the
// next start warms from.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err == nil {
		if cfg.cluster == "" {
			err = runShard(cfg)
		} else {
			err = runFront(cfg)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcrd:", err)
		var ue *usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks a command line gcrd refuses to act on — missing or
// contradictory flags, not a serving failure. main maps it to exit
// status 2, the conventional usage-error status.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

// usagef builds a usageError.
func usagef(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

// runCfg carries the parsed command line. set records which flags were
// given explicitly, so validation can tell "defaulted" from "asked for" —
// a shard-only flag at its default is fine in cluster mode; the same flag
// spelled out is a contradiction worth stopping on.
type runCfg struct {
	addr             string
	workers          int
	queue            int
	cacheSize        int
	timeout          time.Duration
	verify           bool
	grace            time.Duration
	snapshot         string
	snapshotInterval time.Duration
	warmupDelay      time.Duration
	chaosSpec        string

	cluster       string
	probeInterval time.Duration

	set map[string]bool
}

func parseArgs(args []string) (*runCfg, error) {
	cfg := &runCfg{}
	fs := flag.NewFlagSet("gcrd", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "localhost:8080", "listen address (host:port)")
	fs.IntVar(&cfg.workers, "workers", 0, "routing worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.queue, "queue", 64, "admission queue depth (full queue answers 429)")
	fs.IntVar(&cfg.cacheSize, "cache", 128, "result-cache entries (the front tier's L1 in -cluster mode)")
	fs.DurationVar(&cfg.timeout, "timeout", 2*time.Minute, "routing deadline of every execution (per-shard forward budget in -cluster mode)")
	fs.BoolVar(&cfg.verify, "verify", false, "run the independent checker on every cache miss before caching")
	fs.DurationVar(&cfg.grace, "grace", 30*time.Second, "shutdown drain budget before in-flight routes are canceled")
	fs.StringVar(&cfg.snapshot, "snapshot", "", "cache snapshot path: loaded (and digest-verified) at start, rewritten periodically and on drain")
	fs.DurationVar(&cfg.snapshotInterval, "snapshot-interval", 30*time.Second, "periodic snapshot cadence (<= 0 disables periodic saves; the on-drain save always runs)")
	fs.DurationVar(&cfg.warmupDelay, "warmup-delay", 0, "artificial delay before the start-time snapshot load (stretches the /readyz warming window; for restart drills)")
	fs.StringVar(&cfg.chaosSpec, "chaos", "", "fault-injection spec, e.g. seed=42,panic=200,error=100,latency=50:10ms,slow=100:5ms (empty = disabled)")
	fs.StringVar(&cfg.cluster, "cluster", "", "run as cluster front tier over these comma-separated shard base URLs")
	fs.DurationVar(&cfg.probeInterval, "probe-interval", time.Second, "shard health probe period (cluster mode)")
	if err := fs.Parse(args); err != nil {
		return nil, usagef("%v", err)
	}
	if fs.NArg() > 0 {
		return nil, usagef("unexpected arguments %q", fs.Args())
	}
	cfg.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { cfg.set[f.Name] = true })
	if err := validate(cfg); err != nil {
		return nil, err
	}
	return cfg, nil
}

// validate rejects malformed or contradictory flag combinations before
// any listener opens. Every error it returns is a usageError. The cluster
// checks are explicit rather than silent: a front tier has no routing
// pool, no chaos engine and no snapshot, so a flag configuring one of
// those is a misunderstanding the operator should hear about, with the
// shard-side alternative spelled out.
func validate(cfg *runCfg) error {
	if _, _, err := net.SplitHostPort(cfg.addr); err != nil {
		return usagef("-addr %q is not a host:port address: %v", cfg.addr, err)
	}
	if cfg.cluster == "" {
		// Shard mode: front-tier-only flags are contradictions here.
		if cfg.set["probe-interval"] {
			return usagef("-probe-interval only applies with -cluster (the front tier probes shard /readyz; a shard has nothing to probe)")
		}
		if _, err := serve.ParseChaos(cfg.chaosSpec); err != nil {
			return usagef("-chaos: %v", err)
		}
		return nil
	}
	// Cluster front-tier mode.
	shardOnly := []struct{ name, why string }{
		{"chaos", "inject faults on the shard gcrds instead; the front tier must stay honest to measure them"},
		{"snapshot", "durability is shard-side: give each shard gcrd its own -snapshot; the front tier's L1 rebuilds from shard caches"},
		{"snapshot-interval", "durability is shard-side: give each shard gcrd its own -snapshot-interval"},
		{"warmup-delay", "warmup is shard-side: pass -warmup-delay to the restarted shard gcrd"},
		{"verify", "verification runs where routing runs: pass -verify to the shard gcrds"},
		{"workers", "the front tier does no routing work: size -workers on the shard gcrds"},
		{"queue", "admission control is shard-side: size -queue on the shard gcrds"},
	}
	for _, f := range shardOnly {
		if cfg.set[f.name] {
			return usagef("-cluster and -%s are mutually exclusive: %s", f.name, f.why)
		}
	}
	shards := splitShards(cfg.cluster)
	if len(shards) == 0 {
		return usagef("-cluster needs at least one shard URL, e.g. -cluster http://127.0.0.1:9101,http://127.0.0.1:9102")
	}
	for _, s := range shards {
		u, err := url.Parse(s)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return usagef("-cluster: %q is not an absolute shard URL (want e.g. http://127.0.0.1:9101)", s)
		}
	}
	if cfg.probeInterval <= 0 {
		return usagef("-probe-interval %v must be positive", cfg.probeInterval)
	}
	return nil
}

// splitShards parses the -cluster value.
func splitShards(spec string) []string {
	var out []string
	for _, part := range strings.Split(spec, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// runShard serves one routing backend — gcrd's classic mode.
func runShard(cfg *runCfg) error {
	chaos, err := serve.ParseChaos(cfg.chaosSpec)
	if err != nil {
		return usagef("-chaos: %v", err)
	}
	interval := cfg.snapshotInterval
	if interval <= 0 {
		interval = -1 // explicit "periodic saves off" for serve.Config
	}
	scfg := serve.Config{
		Workers:          cfg.workers,
		QueueDepth:       cfg.queue,
		CacheSize:        cfg.cacheSize,
		MaxTimeout:       cfg.timeout,
		Verify:           cfg.verify,
		Chaos:            chaos,
		SnapshotPath:     cfg.snapshot,
		SnapshotInterval: interval,
		WarmupDelay:      cfg.warmupDelay,
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("cannot listen on %s (port in use, or address not local?): %w", cfg.addr, err)
	}
	srv := serve.New(scfg)
	httpSrv := &http.Server{Handler: srv.Handler()}
	log.Printf("gcrd: serving on http://%s (POST /v1/route, /healthz, /readyz, /metrics)", ln.Addr())
	if scfg.SnapshotPath != "" {
		log.Printf("gcrd: cache snapshot at %s (watch /readyz for warming → ready)", scfg.SnapshotPath)
	}
	if scfg.Chaos != (serve.Chaos{}) {
		log.Printf("gcrd: CHAOS ARMED (seed %d): injecting faults on schedule — not a production configuration", scfg.Chaos.Seed)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return fmt.Errorf("http serve on %s failed: %w", ln.Addr(), err)
	case got := <-sig:
		log.Printf("gcrd: %v — draining (budget %v)", got, cfg.grace)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.grace)
	defer cancel()
	// Drain the routing service first (rejects new work, finishes queued
	// and in-flight routes), then close the HTTP listener.
	drainErr := srv.Shutdown(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if drainErr != nil {
		return fmt.Errorf("drain incomplete: %w", drainErr)
	}
	log.Printf("gcrd: drained cleanly")
	return nil
}

// runFront serves the cluster front tier over the -cluster shard list.
func runFront(cfg *runCfg) error {
	shards := splitShards(cfg.cluster)
	rt, err := cluster.New(cluster.Config{
		Shards:         shards,
		L1Size:         cfg.cacheSize,
		ProbeInterval:  cfg.probeInterval,
		ForwardTimeout: cfg.timeout,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	rt.ProbeNow()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("cannot listen on %s (port in use, or address not local?): %w", cfg.addr, err)
	}
	httpSrv := &http.Server{Handler: rt.Handler()}
	log.Printf("gcrd: cluster front tier on http://%s over %d shards: %s", ln.Addr(), len(shards), strings.Join(shards, " "))

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return fmt.Errorf("http serve on %s failed: %w", ln.Addr(), err)
	case got := <-sig:
		log.Printf("gcrd: %v — shutting down front tier (budget %v)", got, cfg.grace)
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.grace)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	log.Printf("gcrd: front tier stopped (shards keep running)")
	return nil
}
