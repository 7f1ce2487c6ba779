package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// frontMaxBody mirrors the shard-side request body bound.
const frontMaxBody = 64 << 20

// answer is the outcome of one front-tier submission, ready to write:
// either a RouteResponse (status 200) or an ErrorResponse, plus the
// provenance headers. Source is one of "l1", "l2" (the shard answered
// from its cache), "peer", "shard", "error"; Shard names the backend that
// produced the payload, empty for purely local answers.
type answer struct {
	status     int
	route      *serve.RouteResponse
	errBody    *serve.ErrorResponse
	retryAfter time.Duration
	source     string
	shardName  string
}

// Handler returns the front-tier mux:
//
//	POST /v1/route   one routing request, cluster-routed
//	GET  /healthz    front-tier liveness + per-shard states
//	GET  /readyz     cluster readiness aggregate
//	GET  /metrics    cluster-wide Prometheus exposition (merged snapshots)
//	GET  /metrics.json  the same merged snapshot as JSON
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/route", rt.handleRoute)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /metrics.json", rt.handleMetricsJSON)
	return rt.recoverMiddleware(mux)
}

// recoverMiddleware mirrors the shard-side panic isolation: a panic in
// the front tier answers that one request with a typed 500.
func (rt *Router) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				writeJSON(w, http.StatusInternalServerError, &serve.ErrorResponse{
					Error: fmt.Sprintf("cluster: handler panic: %v", rec), Kind: "panic"})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (rt *Router) handleRoute(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, err := io.ReadAll(io.LimitReader(r.Body, frontMaxBody+1))
	if err != nil || len(body) > frontMaxBody {
		writeJSON(w, http.StatusBadRequest, &serve.ErrorResponse{
			Error: "cluster: unreadable or oversized body", Kind: "bad_request"})
		return
	}
	ans := rt.submit(r.Context(), body)
	rt.inst.requestMs.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	w.Header().Set("X-Cluster-Source", ans.source)
	if ans.shardName != "" {
		w.Header().Set("X-Cluster-Shard", ans.shardName)
	}
	if ans.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((ans.retryAfter+time.Second-1)/time.Second)))
	}
	if ans.route != nil {
		writeJSON(w, ans.status, ans.route)
		return
	}
	if ans.errBody == nil {
		ans.errBody = &serve.ErrorResponse{Error: fmt.Sprintf("cluster: shard answered status %d", ans.status), Kind: "internal"}
	}
	writeJSON(w, ans.status, ans.errBody)
}

// submit runs the full lookup ladder for one raw request body. The body
// is forwarded to shards byte-for-byte — the front tier resolves it only
// to compute the canonical digest — so the shard-side digest, and with it
// the routed tree, is identical to what a direct submission would get.
func (rt *Router) submit(ctx context.Context, body []byte) *answer {
	rt.inst.requests.Inc()
	req, err := serve.DecodeRouteRequest(body)
	if err != nil {
		rt.inst.badRequests.Inc()
		return &answer{status: http.StatusBadRequest, source: "error",
			errBody: &serve.ErrorResponse{Error: err.Error(), Kind: "bad_request"}}
	}
	rr, err := req.Resolve()
	if err != nil {
		rt.inst.badRequests.Inc()
		return &answer{status: http.StatusBadRequest, source: "error",
			errBody: &serve.ErrorResponse{Error: err.Error(), Kind: "bad_request"}}
	}
	digest := rr.Digest()

	// L1: the front tier's own cache answers without touching any shard.
	if res, ok := rt.l1.Get(digest); ok {
		rt.inst.l1Hits.Inc()
		return &answer{status: http.StatusOK, source: "l1",
			route: serve.BuildRouteResponse(rr, digest, true, false, res)}
	}

	cands, primary := rt.candidates(digest)
	if len(cands) == 0 {
		rt.inst.noShards.Inc()
		return &answer{status: http.StatusServiceUnavailable, source: "error", retryAfter: time.Second,
			errBody: &serve.ErrorResponse{Error: "cluster: no shard available", Kind: "no_shards"}}
	}

	// Peer sweep, only when the owner's cache is suspect: the first live
	// candidate is standing in for a down primary (the result may live on
	// whichever shard computed it during the outage), or the owner is
	// itself warming from a restart and its snapshot has not landed yet.
	// On a healthy, settled cluster the sweep never runs, so cold keys
	// don't pay N−1 extra GETs — and the warm-restart test's assertion that
	// peer fetch stops once /readyz reports ready is a structural
	// property, not a tuning accident.
	if cands[0] != primary || !cands[0].ready() {
		rt.inst.peerSweeps.Inc()
		for _, sh := range cands[1:] {
			if res := sh.peek(ctx, digest); res != nil {
				rt.inst.peerHits.Inc()
				rt.l1.Add(digest, res)
				return &answer{status: http.StatusOK, source: "peer", shardName: sh.name,
					route: serve.BuildRouteResponse(rr, digest, true, false, res)}
			}
		}
	}

	// One forward. The owner checks its own cache before admission, so a
	// repeat costs it no routing; such an answer is the L2 hit.
	ans := rt.forward(ctx, body, digest, cands)
	if ans.source == "l2" {
		rt.inst.l2Hits.Inc()
	} else {
		rt.inst.forwards.Inc()
	}
	return ans
}

// forward walks the candidate list in ring order and pays for at most one
// real route execution. Transport-level failures demote the shard and
// fail over in-line; HTTP error answers fail over too (another shard may
// well succeed where one is drowning or fault-injected) but are
// preserved, so when every candidate is spent the client sees the last
// shard's own status, kind and Retry-After verbatim — never a generic
// rewrap. Only when no shard produced any HTTP answer does the front tier
// synthesize its own 503.
func (rt *Router) forward(ctx context.Context, body []byte, digest string, cands []*shard) *answer {
	var lastHTTP *answer
	for i, sh := range cands {
		if ctx.Err() != nil {
			break
		}
		if i > 0 {
			rt.inst.failovers.Inc()
		}
		fctx, cancel := context.WithTimeout(ctx, rt.cfg.ForwardTimeout)
		fstart := time.Now()
		cres, err := sh.client.Route(fctx, body)
		cancel()
		rt.inst.forwardMs.Observe(float64(time.Since(fstart)) / float64(time.Millisecond))

		switch {
		case cres != nil && cres.Response != nil:
			// A real answer from a live shard; admit it into L1 so repeats
			// stay local.
			rt.l1.Add(digest, cres.Response.Result())
			source := "shard"
			if cres.Response.Cached {
				source = "l2"
			}
			return &answer{status: http.StatusOK, source: source, shardName: sh.name, route: cres.Response}
		case cres != nil && cres.Status != 0:
			// The shard answered deliberately. 4xx (other than 429) is a
			// property of the request — every shard would agree, so it is
			// final. 429/5xx may be shard-local (overload, injected fault,
			// draining): remember it verbatim and try the next candidate.
			ans := &answer{status: cres.Status, source: "shard", shardName: sh.name,
				errBody: cres.ErrorBody, retryAfter: cres.RetryAfter}
			if cres.Status < 500 && cres.Status != http.StatusTooManyRequests {
				return ans
			}
			lastHTTP = ans
		default:
			// No HTTP answer at all: the shard is unreachable (or its
			// breaker is open from earlier failures). Demote it now — this
			// is the in-band rebalance — and fail over.
			if err != nil && !errors.Is(err, context.Canceled) {
				rt.markDown(sh)
			}
		}
	}
	if lastHTTP != nil {
		return lastHTTP
	}
	if ctx.Err() != nil {
		return &answer{status: 499, source: "error",
			errBody: &serve.ErrorResponse{Error: "cluster: client went away: " + ctx.Err().Error(), Kind: "canceled"}}
	}
	rt.inst.noShards.Inc()
	return &answer{status: http.StatusServiceUnavailable, source: "error", retryAfter: time.Second,
		errBody: &serve.ErrorResponse{Error: "cluster: every shard unreachable for this request", Kind: "shard_unreachable"}}
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"l1Size": rt.l1.Len(),
		"shards": rt.ShardStates(),
	})
}

// handleReadyz aggregates per-shard readiness into one cluster verdict:
// "ready" only when every shard is ready, "degraded" (still 200 — the
// cluster serves, with failover and peer fetch covering the gaps) when at
// least one shard is selectable, 503 "unavailable" when none is.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	states := rt.ShardStates()
	var selectable, ready int
	for _, st := range states {
		switch st.State {
		case "ready":
			ready++
			selectable++
		case "warming":
			selectable++
		}
	}
	verdict := "unavailable"
	status := http.StatusServiceUnavailable
	switch {
	case ready == len(states):
		verdict = "ready"
		status = http.StatusOK
	case selectable > 0:
		verdict = "degraded"
		status = http.StatusOK
	default:
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]any{
		"status":     verdict,
		"shards":     states,
		"selectable": selectable,
		"ready":      ready,
		"total":      len(states),
	})
}

// mergedSnapshot scrapes every selectable shard's /metrics.json and folds
// the snapshots — plus the front tier's own — through obs.MergeAll, whose
// sorted summation makes the aggregate independent of scrape order and
// shard listing order. Scrape failures skip that shard and count.
func (rt *Router) mergedSnapshot(ctx context.Context) obs.Snapshot {
	local := rt.cfg.Metrics.Snapshot()
	snaps := make([]obs.Snapshot, len(rt.shards))
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		if !sh.selectable() {
			continue
		}
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			snap, err := sh.scrapeSnapshot(ctx)
			if err != nil {
				rt.inst.scrapeErrors.Inc()
				return
			}
			snaps[i] = snap
		}(i, sh)
	}
	wg.Wait()
	all := []obs.Snapshot{local}
	for _, s := range snaps {
		if s != nil {
			all = append(all, s)
		}
	}
	return obs.MergeAll(all...)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := rt.mergedSnapshot(r.Context())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := snap.WriteProm(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (rt *Router) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.mergedSnapshot(r.Context()))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
