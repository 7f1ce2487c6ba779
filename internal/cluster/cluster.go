// Package cluster shards the gated-clock routing service across N gcrd
// backends behind one front tier, without changing a single answer byte.
//
// Placement is a consistent-hash ring over the canonical request digest
// (the same SHA-256 the single-node serve cache keys on), so the mapping
// from request to owning shard is a pure function every front tier and
// test can recompute. An L1 miss costs one forward: the front tier's own
// SIEVE cache answers repeats locally, and otherwise the request goes to the
// owner, whose cache answers a digest it holds before any admission or
// routing (counted as L2). Only when a rebalance or a cold restart makes
// the owner's cache suspect does the front tier first ask the other live
// shards' caches by digest (peer fetch). Because every layer is keyed by
// the canonical digest and routing is deterministic, the cluster path
// returns tree digests bit-identical to a single node's.
//
// Health is demand-driven plus probed: a transport failure while
// forwarding demotes the shard immediately and the request fails over to
// the ring successor in the same call (rebalance without coordination);
// a background /readyz prober promotes returned shards back through
// warming to ready (hand-back).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sieve"
)

// Config assembles a Router. Shards is required; every other field has a
// production default.
type Config struct {
	// Shards are the backend base URLs, e.g. "http://127.0.0.1:9101".
	// Order matters: it defines shard identity on the ring, so every front
	// tier of one cluster must list the same shards in the same order.
	Shards []string

	// L1Size bounds the front tier's own SIEVE result cache (0 = 512,
	// negative disables L1).
	L1Size int
	// ForwardTimeout bounds one shard forward including queueing (0 = 2m).
	ForwardTimeout time.Duration
	// ProbeInterval is the background health-probe period (0 = 1s;
	// negative disables the loop — tests then drive ProbeNow directly).
	ProbeInterval time.Duration

	// Metrics receives the cluster_* instruments (nil = private registry).
	Metrics *obs.Registry
	// Transport overrides the HTTP transport for all shard traffic
	// (nil = http.DefaultTransport); tests inject in-process handlers.
	Transport http.RoundTripper
}

const (
	// vnodes is the ring's virtual-node count per shard.
	vnodes = 64
	// peekTimeout bounds one cache peek, probe or metrics scrape.
	peekTimeout = 2 * time.Second
	// Each shard's forward client makes one attempt: the front tier's
	// failover across shards is the retry policy, so worst-case latency
	// stays additive. Its breaker opens after breakerThreshold consecutive
	// failures and cools down for breakerCooldown; the prober, not a
	// half-open probe, is the main recovery path, so the cooldown is short.
	breakerThreshold = 3
	breakerCooldown  = time.Second
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.L1Size == 0 {
		out.L1Size = 512
	}
	if out.ForwardTimeout <= 0 {
		out.ForwardTimeout = 2 * time.Minute
	}
	if out.ProbeInterval == 0 {
		out.ProbeInterval = time.Second
	}
	if out.Metrics == nil {
		out.Metrics = obs.NewRegistry()
	}
	if out.Transport == nil {
		out.Transport = http.DefaultTransport
	}
	return out
}

// instruments is the cluster_* instrument set.
type instruments struct {
	requests, badRequests         *obs.Counter
	l1Hits, l2Hits, peerHits      *obs.Counter
	forwards, peerSweeps          *obs.Counter
	failovers, noShards           *obs.Counter
	rebalances, handbacks         *obs.Counter
	scrapeErrors                  *obs.Counter
	shardsSelectable, shardsReady *obs.Gauge
	requestMs, forwardMs          *obs.Histogram
}

// Router is the cluster front tier: it owns the ring, the shard health
// view and the L1 cache, and turns one client request into at most one
// shard route execution.
type Router struct {
	cfg    Config
	shards []*shard
	ring   *ring
	l1     *sieve.Cache[string, *serve.RouteResult]
	inst   *instruments

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New validates the shard list, builds the per-shard clients and starts
// the health prober. Shards start in the warming state (selectable but
// not ready) until the first probe settles their real state; call
// ProbeNow to settle it synchronously.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:  cfg,
		ring: newRing(len(cfg.Shards), vnodes),
		l1:   sieve.New[string, *serve.RouteResult](cfg.L1Size),
		stop: make(chan struct{}),
	}
	rt.inst = &instruments{
		requests:         cfg.Metrics.Counter("cluster_requests_total", "route requests accepted by the front tier"),
		badRequests:      cfg.Metrics.Counter("cluster_bad_requests_total", "requests rejected before shard selection"),
		l1Hits:           cfg.Metrics.Counter("cluster_l1_hits_total", "answers served from the front tier's own cache"),
		l2Hits:           cfg.Metrics.Counter("cluster_l2_hits_total", "forwarded answers the shard served from its cache"),
		peerHits:         cfg.Metrics.Counter("cluster_peer_hits_total", "answers recovered from a non-owner shard's cache"),
		forwards:         cfg.Metrics.Counter("cluster_forwards_total", "forwarded requests not answered from a shard cache"),
		peerSweeps:       cfg.Metrics.Counter("cluster_peer_sweeps_total", "L1 misses that swept the peers' caches for a suspect owner"),
		failovers:        cfg.Metrics.Counter("cluster_failovers_total", "forwards diverted past an unavailable shard"),
		noShards:         cfg.Metrics.Counter("cluster_no_shards_total", "requests refused with every shard unavailable"),
		rebalances:       cfg.Metrics.Counter("cluster_rebalances_total", "shard transitions into down (keys moved to successors)"),
		handbacks:        cfg.Metrics.Counter("cluster_handbacks_total", "shard recoveries (keys handed back to their owner)"),
		scrapeErrors:     cfg.Metrics.Counter("cluster_scrape_errors_total", "failed shard metric scrapes during aggregation"),
		shardsSelectable: cfg.Metrics.Gauge("cluster_shards_selectable", "shards currently accepting routed work"),
		shardsReady:      cfg.Metrics.Gauge("cluster_shards_ready", "shards fully warm"),
		requestMs:        cfg.Metrics.Histogram("cluster_request_ms", "front-tier request latency (ms)", obs.ExpBuckets(0.25, 2, 14)),
		forwardMs:        cfg.Metrics.Histogram("cluster_forward_ms", "shard forward latency (ms)", obs.ExpBuckets(0.25, 2, 14)),
	}
	rt.shards = make([]*shard, len(cfg.Shards))
	for i, raw := range cfg.Shards {
		base := strings.TrimRight(raw, "/")
		u, err := url.Parse(base)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: shard %d: %q is not an absolute URL", i, raw)
		}
		sh := &shard{
			name: u.Host,
			base: base,
			client: &serve.Client{
				Base:             base,
				Transport:        cfg.Transport,
				MaxAttempts:      1,
				BreakerThreshold: breakerThreshold,
				BreakerCooldown:  breakerCooldown,
				Metrics:          obs.NewRegistry(),
			},
			plain: &http.Client{Transport: cfg.Transport},
		}
		sh.setState(shardWarming)
		rt.shards[i] = sh
	}
	rt.refreshGauges()
	if cfg.ProbeInterval > 0 {
		rt.wg.Add(1)
		go rt.probeLoop()
	}
	return rt, nil
}

// Close stops the prober. In-flight requests finish on their own.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.ProbeNow()
		}
	}
}

// ProbeNow probes every shard's /readyz once, synchronously, and applies
// the transitions. New calls it is the hand-back path: a shard the
// forward path demoted to down is promoted again only here, once its
// readiness endpoint answers.
func (rt *Router) ProbeNow() {
	ctx := context.Background()
	var wg sync.WaitGroup
	states := make([]shardState, len(rt.shards))
	for i, sh := range rt.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			states[i] = sh.probeOnce(ctx)
		}(i, sh)
	}
	wg.Wait()
	for i, sh := range rt.shards {
		rt.applyState(sh, states[i])
	}
}

// applyState commits one observed state, counting ownership transitions:
// any fall to down is a rebalance (the shard's keys now belong to ring
// successors), any rise from down is a hand-back.
func (rt *Router) applyState(sh *shard, next shardState) {
	prev := shardState(sh.state.Swap(int32(next)))
	if prev == next {
		return
	}
	if next == shardDown && prev != shardDown {
		rt.inst.rebalances.Inc()
	}
	if prev == shardDown && (next == shardWarming || next == shardReady) {
		rt.inst.handbacks.Inc()
	}
	rt.refreshGauges()
}

// markDown demotes a shard after a forwarding transport failure — the
// in-band health sample that makes failover immediate instead of waiting
// a probe period.
func (rt *Router) markDown(sh *shard) { rt.applyState(sh, shardDown) }

func (rt *Router) refreshGauges() {
	var sel, rdy int64
	for _, sh := range rt.shards {
		if sh.selectable() {
			sel++
		}
		if sh.ready() {
			rdy++
		}
	}
	rt.inst.shardsSelectable.Set(sel)
	rt.inst.shardsReady.Set(rdy)
}

// candidates returns the live preference order for a digest: the full
// ring order filtered down to selectable shards. The first entry is the
// effective owner after any rebalance; an empty result means the cluster
// has nothing to offer.
func (rt *Router) candidates(digest string) (cands []*shard, primary *shard) {
	prefs := rt.ring.owners(ringKey(digest), len(rt.shards))
	if len(prefs) == 0 {
		return nil, nil
	}
	primary = rt.shards[prefs[0]]
	for _, id := range prefs {
		if sh := rt.shards[id]; sh.selectable() {
			cands = append(cands, sh)
		}
	}
	return cands, primary
}

// ShardStates reports each shard's current state keyed by name, in
// configuration order (for /readyz aggregation and drill assertions).
type ShardStatus struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	State string `json:"state"`
}

func (rt *Router) ShardStates() []ShardStatus {
	out := make([]ShardStatus, len(rt.shards))
	for i, sh := range rt.shards {
		out[i] = ShardStatus{Name: sh.name, URL: sh.base, State: sh.getState().String()}
	}
	return out
}
