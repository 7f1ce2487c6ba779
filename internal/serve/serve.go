package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	gatedclock "repro"
	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/sieve"
	"repro/internal/verify"
)

// Config parameterizes a Server. The zero value is usable: GOMAXPROCS
// workers, a queue of 64, shedding of background work above half the
// queue, a 128-entry cache, a 2-minute routing deadline, and a fresh
// metrics registry.
type Config struct {
	// Workers is the size of the routing worker pool (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue; a full queue answers 429
	// with a Retry-After hint instead of blocking (0 = 64).
	QueueDepth int
	// ShedWatermark is the queue depth at or above which background
	// requests are shed even though interactive ones still fit — the
	// load-shedding watermark that keeps sweeps from starving
	// interactive traffic (0 = QueueDepth/2; negative disables early
	// shedding).
	ShedWatermark int
	// CacheSize is the result cache's capacity in entries, evicted by
	// SIEVE (0 = 128; negative disables caching).
	CacheSize int
	// MaxTimeout caps every request's routing deadline; requests may ask
	// for less via timeoutMs but never more (0 = 2m).
	MaxTimeout time.Duration
	// Verify runs the independent checker (internal/verify) on every
	// cache miss before the result is admitted to the cache, so a cached
	// entry is always a verified one.
	Verify bool
	// Metrics receives the serve_* instruments and the router's core
	// instruments (nil = a fresh private registry; pass obs.Default() to
	// share the process-wide one).
	Metrics *obs.Registry
	// Tracer receives serve.queue/serve.route phase spans plus the
	// router's construction spans (nil = disabled).
	Tracer obs.Tracer

	// Chaos arms service-level fault injection (injected worker panics,
	// 5xx errors, latency, slow responses) on deterministic seeded
	// schedules. The zero value injects nothing — the production
	// configuration.
	Chaos Chaos

	// SnapshotPath, when non-empty, makes the result cache crash-safe:
	// the server loads the snapshot at this path on start (reporting
	// "warming" on /readyz until done), rewrites it every
	// SnapshotInterval, and writes a final snapshot when Shutdown's drain
	// completes. Writes are atomic (temp file + rename); corrupt or
	// stale-version snapshots are discarded entry-by-entry, never trusted.
	SnapshotPath string
	// SnapshotInterval is the periodic snapshot cadence (0 = 30s;
	// negative disables periodic saves, keeping only the on-drain one).
	SnapshotInterval time.Duration
	// WarmupDelay postpones the start-time snapshot load, stretching the
	// /readyz "warming" window. It simulates slow snapshot storage: the
	// cluster warm-restart tests use it to observe the front tier's
	// peer-fetch path deterministically while a shard's cache is still
	// cold. Zero (the production value) loads immediately.
	WarmupDelay time.Duration

	// route is the test seam for the routing execution; nil selects the
	// real pipeline (generate → design → route → evaluate).
	route routeFunc
}

// routeFunc executes one resolved request and returns the cacheable
// result. opts carries the server-level knobs (Verify, Workers, Metrics,
// Tracer) already merged into the request's resolved options.
type routeFunc func(ctx context.Context, rr *Resolved, opts gatedclock.Options) (*RouteResult, error)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ShedWatermark == 0 {
		c.ShedWatermark = c.QueueDepth / 2
	}
	if c.ShedWatermark < 0 || c.ShedWatermark > c.QueueDepth {
		c.ShedWatermark = c.QueueDepth
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.route == nil {
		c.route = routeResolved
	}
	return c
}

// Server is the concurrent routing service: admission queue → coalescer →
// cache → worker pool → (optional) verifier. Create with New, expose with
// Handler, stop with Shutdown.
type Server struct {
	cfg   Config
	queue chan *job
	stop  chan struct{}

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu        sync.Mutex
	draining  bool
	flight    map[string]*call // singleflight: digest → in-flight call
	inflightN int              // routing executions currently running

	cache *resultCache
	inst  *instruments
	chaos *chaosInjector

	jobWG    sync.WaitGroup // enqueued-but-unfinished jobs
	workerWG sync.WaitGroup

	// warmed flips once the snapshot load (if any) has finished; until
	// then /readyz reports "warming". Serving is not gated on it — a
	// warming server routes fine, its cache is just still cold.
	warmed atomic.Bool
	snapWG sync.WaitGroup // snapshot loader + periodic saver

	startedAt time.Time
}

// job is one admitted routing execution.
type job struct {
	rr         *Resolved
	call       *call
	ctx        context.Context
	enqueuedAt time.Time
}

// call is one in-flight execution that any number of identical requests
// wait on. waiters is guarded by Server.mu; res/err are published by
// closing done.
type call struct {
	digest  string
	done    chan struct{}
	res     *RouteResult
	err     error
	cancel  context.CancelFunc
	waiters int
}

// instruments is the serve_* instrument set, registered once per Server.
type instruments struct {
	requests, hits, misses, coalesced  *obs.Counter
	shed, badRequests, routeErrors     *obs.Counter
	verifyFails, batches, panics       *obs.Counter
	snapSaves, snapLoaded, snapRejects *obs.Counter
	peekHits, peekMisses               *obs.Counter
	depth, inflight, cacheEntries      *obs.Gauge
	queueWaitMs, routeMs               *obs.Histogram
}

func newInstruments(r *obs.Registry) *instruments {
	msBuckets := obs.ExpBuckets(0.25, 2, 18) // 0.25 ms … ~32 s
	return &instruments{
		requests:     r.Counter("serve_requests_total", "route requests received (including batch items)"),
		hits:         r.Counter("serve_cache_hits_total", "requests answered from the result cache"),
		misses:       r.Counter("serve_cache_misses_total", "requests that led a fresh routing execution"),
		coalesced:    r.Counter("serve_coalesced_total", "requests that joined an identical in-flight execution"),
		shed:         r.Counter("serve_shed_total", "requests shed with 429 (queue full or watermark)"),
		badRequests:  r.Counter("serve_bad_requests_total", "malformed or invalid requests (400)"),
		routeErrors:  r.Counter("serve_route_errors_total", "routing executions that failed"),
		verifyFails:  r.Counter("serve_verify_failures_total", "independent-verifier rejections of routed results"),
		batches:      r.Counter("serve_batch_total", "batch requests received"),
		panics:       r.Counter("serve_panics_total", "panics recovered into typed 500s (execution, batch item, or handler)"),
		snapSaves:    r.Counter("serve_snapshot_saves_total", "cache snapshots written (periodic + on-drain)"),
		snapLoaded:   r.Counter("serve_snapshot_loaded_total", "cache entries restored from the start-time snapshot"),
		snapRejects:  r.Counter("serve_snapshot_rejected_total", "snapshot entries discarded by load-time verification"),
		peekHits:     r.Counter("serve_cache_peek_hits_total", "cache-by-digest lookups (peer fetches) answered from the result cache"),
		peekMisses:   r.Counter("serve_cache_peek_misses_total", "cache-by-digest lookups that found nothing"),
		depth:        r.Gauge("serve_queue_depth", "admission-queue occupancy"),
		inflight:     r.Gauge("serve_inflight", "routing executions currently running"),
		cacheEntries: r.Gauge("serve_cache_entries", "result-cache occupancy"),
		queueWaitMs:  r.Histogram("serve_queue_wait_ms", "time from admission to worker pickup (ms)", msBuckets),
		routeMs:      r.Histogram("serve_route_ms", "routing execution wall time (ms)", msBuckets),
	}
}

// New builds and starts a Server: the worker pool is live on return. When
// a snapshot path is configured, the cache warms in the background — the
// server routes immediately, /readyz reports "warming" until the load
// finishes, and a periodic saver keeps the snapshot fresh.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		queue:     make(chan *job, cfg.QueueDepth),
		stop:      make(chan struct{}),
		flight:    make(map[string]*call),
		cache:     sieve.New[string, *RouteResult](cfg.CacheSize),
		inst:      newInstruments(cfg.Metrics),
		chaos:     newChaosInjector(cfg.Chaos, cfg.Metrics),
		startedAt: time.Now(),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	if cfg.SnapshotPath == "" {
		s.warmed.Store(true)
	} else {
		s.snapWG.Add(1)
		go func() {
			defer s.snapWG.Done()
			if cfg.WarmupDelay > 0 {
				t := time.NewTimer(cfg.WarmupDelay)
				select {
				case <-t.C:
				case <-s.stop: // shutting down before the load began
					t.Stop()
				}
			}
			s.loadSnapshot()
			s.warmed.Store(true)
			if cfg.SnapshotInterval > 0 {
				s.snapshotLoop()
			}
		}()
	}
	return s
}

// Readiness classifies the server for load balancers: "warming" while the
// start-time snapshot load is still running, "draining" once Shutdown has
// begun, "ready" otherwise. Liveness (/healthz) stays green while warming;
// only readiness withholds traffic.
func (s *Server) Readiness() string {
	switch {
	case s.Draining():
		return "draining"
	case !s.warmed.Load():
		return "warming"
	default:
		return "ready"
	}
}

// Metrics returns the registry the server's instruments live on.
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// submitInfo describes how a request was satisfied.
type submitInfo struct {
	digest    string
	cached    bool
	coalesced bool
}

// submit is the request path shared by the route and batch handlers:
// cache lookup, singleflight join, admission with backpressure, then wait.
// ctx is the caller's (client-connection) context: its cancellation stops
// the wait, and when the last waiter of an execution leaves, the execution
// itself is canceled.
func (s *Server) submit(ctx context.Context, rr *Resolved) (*RouteResult, submitInfo, error) {
	s.inst.requests.Inc()
	digest := rr.Digest()
	info := submitInfo{digest: digest}
	if res, ok := s.cache.Get(digest); ok {
		s.inst.hits.Inc()
		info.cached = true
		return res, info, nil
	}

	c, leader, err := s.joinOrLead(rr, digest)
	if err != nil {
		return nil, info, err
	}
	info.coalesced = !leader
	if !leader {
		s.inst.coalesced.Inc()
	}

	select {
	case <-c.done:
		return c.res, info, c.err
	case <-ctx.Done():
		s.leave(c)
		return nil, info, fmt.Errorf("%w: %w", gatedclock.ErrCanceled, ctx.Err())
	}
}

// joinOrLead attaches to an identical in-flight execution or, atomically
// with the check, admits a new one. Returning an error means the request
// was refused (draining, queue full, or watermark shed) without any
// execution existing for it.
func (s *Server) joinOrLead(rr *Resolved, digest string) (*call, bool, error) {
	timeout := s.cfg.MaxTimeout
	if rr.Timeout > 0 && rr.Timeout < timeout {
		timeout = rr.Timeout
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.flight[digest]; ok {
		c.waiters++
		return c, false, nil
	}
	if s.draining {
		return nil, false, ErrDraining
	}
	depth := len(s.queue)
	if rr.Background && depth >= s.cfg.ShedWatermark {
		s.inst.shed.Inc()
		return nil, false, fmt.Errorf("%w: background request above watermark (queue %d/%d)",
			ErrOverloaded, depth, s.cfg.QueueDepth)
	}
	jctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	c := &call{digest: digest, done: make(chan struct{}), cancel: cancel, waiters: 1}
	j := &job{rr: rr, call: c, ctx: jctx, enqueuedAt: time.Now()}
	select {
	case s.queue <- j:
		s.jobWG.Add(1)
		s.flight[digest] = c
		s.inst.misses.Inc()
		s.inst.depth.Set(int64(len(s.queue)))
		return c, true, nil
	default:
		cancel()
		s.inst.shed.Inc()
		return nil, false, fmt.Errorf("%w: queue full (%d)", ErrOverloaded, s.cfg.QueueDepth)
	}
}

// leave detaches one waiter from an in-flight call; when the last waiter
// disconnects the execution is canceled — nobody is left to receive the
// result, so finishing it would be wasted work.
func (s *Server) leave(c *call) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.waiters--
	if c.waiters <= 0 {
		select {
		case <-c.done:
		default:
			c.cancel()
		}
	}
}

// worker drains the admission queue until the server stops.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		select {
		case j := <-s.queue:
			s.runJob(j)
			s.jobWG.Done()
		case <-s.stop:
			return
		}
	}
}

// runJob executes one admitted job end to end and publishes the outcome to
// every waiter (and, on verified success, to the cache).
func (s *Server) runJob(j *job) {
	defer j.call.cancel()
	s.inst.depth.Set(int64(len(s.queue)))
	wait := time.Since(j.enqueuedAt)
	s.inst.queueWaitMs.Observe(float64(wait) / 1e6)
	s.span("serve.queue", j.enqueuedAt, wait)

	var res *RouteResult
	var err error
	if err = j.ctx.Err(); err != nil {
		err = fmt.Errorf("%w: abandoned in queue: %w", gatedclock.ErrCanceled, err)
	} else {
		opts := j.rr.Opts
		opts.Verify = opts.Verify || s.cfg.Verify
		opts.Workers = 1 // the pool gives cross-request parallelism
		opts.Metrics = s.cfg.Metrics
		opts.Tracer = s.cfg.Tracer
		s.inst.inflight.Set(int64(s.inflightDelta(1)))
		start := time.Now()
		res, err = s.safeRoute(j.ctx, j.rr, opts)
		dur := time.Since(start)
		s.inst.inflight.Set(int64(s.inflightDelta(-1)))
		s.inst.routeMs.Observe(float64(dur) / 1e6)
		s.span("serve.route", start, dur)
		if err != nil {
			s.inst.routeErrors.Inc()
			if errors.Is(err, verify.ErrInvariant) {
				s.inst.verifyFails.Inc()
			}
		} else {
			res.RouteMs = float64(dur) / 1e6
			s.cache.Add(j.call.digest, res)
			s.inst.cacheEntries.Set(int64(s.cache.Len()))
		}
	}

	// Publish: remove from the flight table first so a request arriving
	// after this point sees the cache, then wake the waiters.
	s.mu.Lock()
	delete(s.flight, j.call.digest)
	j.call.res, j.call.err = res, err
	s.mu.Unlock()
	close(j.call.done)
}

// safeRoute executes the routing pipeline with panic isolation: a panic
// anywhere inside — an injected chaos panic, a poisoned request tripping a
// library bug — is recovered into a typed ErrPanic carried to this job's
// waiters as a 500, while the worker, its siblings, and every unrelated
// in-flight request keep running. The recovery increments
// serve_panics_total and, when tracing is armed, emits a serve.panic span
// so the blast site is visible in the trace next to the route it poisoned.
func (s *Server) safeRoute(ctx context.Context, rr *Resolved, opts gatedclock.Options) (res *RouteResult, err error) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			s.inst.panics.Inc()
			s.span("serve.panic", start, time.Since(start))
			res = nil
			err = fmt.Errorf("%w: %v\n%s", ErrPanic, r, truncStack(debug.Stack()))
		}
	}()
	if err := s.chaos.beforeRoute(ctx); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w: %w", gatedclock.ErrCanceled, err)
		}
		return nil, err
	}
	return s.cfg.route(ctx, rr, opts)
}

// truncStack bounds a recovered goroutine stack to something a JSON error
// body can carry without bloating every waiter's response.
func truncStack(stack []byte) []byte {
	const max = 2048
	if len(stack) > max {
		return append(stack[:max:max], "…"...)
	}
	return stack
}

// inflightDelta adjusts and returns the in-flight count under the server
// mutex (gauges have no atomic add).
func (s *Server) inflightDelta(d int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflightN += d
	return s.inflightN
}

// span emits a phase span when tracing is armed.
func (s *Server) span(name string, start time.Time, dur time.Duration) {
	if s.cfg.Tracer == nil {
		return
	}
	s.cfg.Tracer.Span(obs.Span{Kind: obs.SpanPhase, Name: name, Start: start, Dur: dur})
}

// retryAfterSeconds estimates how long a shed client should back off: the
// queue ahead of it divided across the workers, at the median observed
// route latency, clamped to [1 s, 60 s].
func (s *Server) retryAfterSeconds() int {
	p50 := s.inst.routeMs.Quantile(0.5)
	if p50 <= 0 {
		p50 = 100 // no observations yet: assume 100 ms routes
	}
	pending := float64(len(s.queue) + 1)
	sec := int(math.Ceil(pending * p50 / float64(s.cfg.Workers) / 1000))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueDepth returns the current admission-queue occupancy.
func (s *Server) QueueDepth() int { return len(s.queue) }

// Shutdown stops the server gracefully: new work is rejected immediately
// (ErrDraining → 503), in-flight and queued work is drained to completion,
// and the worker pool exits. If ctx expires before the drain finishes, the
// remaining executions are canceled (their waiters receive ErrCanceled)
// and Shutdown returns the context's error after the pool exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return errors.New("serve: Shutdown called twice")
	}

	drained := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel() // abort in-flight routes at their checkpoints
		<-drained
	}
	close(s.stop)
	s.workerWG.Wait()
	s.baseCancel()
	s.snapWG.Wait() // loader + periodic saver are done; the path is ours
	if s.cfg.SnapshotPath != "" {
		// On-drain snapshot: persist everything the drained executions
		// added, so a restart warm-starts from the freshest cache.
		if serr := s.SaveSnapshot(); serr != nil && err == nil {
			err = fmt.Errorf("final cache snapshot: %w", serr)
		}
	}
	return err
}

// routeResolved is the production routing execution: synthesize the
// benchmark, apply any stream override, materialize the controller, build
// the design (activity-table scan) and route under the job context.
func routeResolved(ctx context.Context, rr *Resolved, opts gatedclock.Options) (*RouteResult, error) {
	b, err := bench.Generate(rr.Cfg)
	if err != nil {
		return nil, err
	}
	if rr.Stream != nil {
		b.Stream = rr.Stream
	}
	ctl, err := rr.materializeController(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	opts.Controller = ctl
	d, err := gatedclock.NewDesign(b)
	if err != nil {
		return nil, err
	}
	res, err := d.RouteContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	return &RouteResult{
		TreeDigest: res.Tree.Digest(),
		Report:     res.Report,
		Stats:      res.Stats,
	}, nil
}
