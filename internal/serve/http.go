package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	gatedclock "repro"
	"repro/internal/core"
	"repro/internal/verify"
)

// maxBodyBytes bounds a request body; the largest legitimate request (an
// explicit MaxLen stream spelled out in JSON) stays well under it.
const maxBodyBytes = 64 << 20

// RouteResponse is the JSON body of a successful POST /v1/route.
type RouteResponse struct {
	// Digest is the canonical request key (also returned as the ETag).
	Digest string `json:"digest"`
	// TreeDigest is topology.Tree.Digest() of the routed tree —
	// bit-identical across cache hits, coalesced joins and re-executions
	// of the same request.
	TreeDigest string `json:"treeDigest"`
	// Cached reports a result-cache hit; Coalesced reports a join onto an
	// identical in-flight execution.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced"`

	Benchmark   string `json:"benchmark,omitempty"`
	Sinks       int    `json:"sinks"`
	Mode        string `json:"mode"`
	Controllers int    `json:"controllers"`

	Report RouteReport `json:"report"`
	Stats  RouteStats  `json:"stats"`
	// RouteMs is the wall time of the execution that produced the result
	// (the original one, for cached responses).
	RouteMs float64 `json:"routeMs"`
}

// RouteReport is the power/area/timing evaluation on the wire.
type RouteReport struct {
	TotalSC         float64 `json:"totalSC"`
	ClockSC         float64 `json:"clockSC"` // W(T)
	CtrlSC          float64 `json:"ctrlSC"`  // W(S)
	UngatedSC       float64 `json:"ungatedSC"`
	ClockWirelength float64 `json:"clockWirelength"`
	StarWirelength  float64 `json:"starWirelength"`
	Gates           int     `json:"gates"`
	Buffers         int     `json:"buffers"`
	MaxDelayPs      float64 `json:"maxDelayPs"`
	SkewPs          float64 `json:"skewPs"`
}

// RouteStats is the construction accounting on the wire.
type RouteStats struct {
	Merges           int `json:"merges"`
	Snakes           int `json:"snakes"`
	PairEvals        int `json:"pairEvals"`
	PairEvalsSkipped int `json:"pairEvalsSkipped"`
	PairEvalsCached  int `json:"pairEvalsCached"`
}

// Result converts the wire response back into the internal RouteResult,
// restoring exactly the wire-visible fields. The cluster front tier uses
// it to admit a forwarded 200 into its L1 cache; fields the wire form does
// not carry (index counters, phase timings) come back zero, which is
// invisible to clients because BuildRouteResponse only reads the
// wire-visible subset.
func (r *RouteResponse) Result() *RouteResult {
	res := &RouteResult{TreeDigest: r.TreeDigest, RouteMs: r.RouteMs}
	res.Report.TotalSC = r.Report.TotalSC
	res.Report.ClockSC = r.Report.ClockSC
	res.Report.CtrlSC = r.Report.CtrlSC
	res.Report.UngatedSC = r.Report.UngatedSC
	res.Report.ClockWirelength = r.Report.ClockWirelength
	res.Report.StarWirelength = r.Report.StarWirelength
	res.Report.NumGates = r.Report.Gates
	res.Report.NumBuffers = r.Report.Buffers
	res.Report.MaxDelayPs = r.Report.MaxDelayPs
	res.Report.SkewPs = r.Report.SkewPs
	res.Stats.Merges = r.Stats.Merges
	res.Stats.Snakes = r.Stats.Snakes
	res.Stats.PairEvals = r.Stats.PairEvals
	res.Stats.PairEvalsSkipped = r.Stats.PairEvalsSkipped
	res.Stats.PairEvalsCached = r.Stats.PairEvalsCached
	return res
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Kind classifies the failure: bad_request, overloaded, draining,
	// canceled, deadline, panic, injected, invariant, internal.
	Kind string `json:"kind"`
}

// buildResponse assembles the wire form of a result.
func buildResponse(rr *Resolved, info submitInfo, res *RouteResult) *RouteResponse {
	return BuildRouteResponse(rr, info.digest, info.cached, info.coalesced, res)
}

// BuildRouteResponse assembles the wire form of a result. The cluster
// front tier uses it to answer from its L1 cache and from peer-fetched
// RouteResults with a body identical to what the owning shard would have
// sent (modulo the cached/coalesced markers, which describe how *this*
// response was satisfied).
func BuildRouteResponse(rr *Resolved, digest string, cached, coalesced bool, res *RouteResult) *RouteResponse {
	rep := res.Report
	st := res.Stats
	return &RouteResponse{
		Digest:      digest,
		TreeDigest:  res.TreeDigest,
		Cached:      cached,
		Coalesced:   coalesced,
		Benchmark:   rr.Cfg.Name,
		Sinks:       rr.Cfg.NumSinks,
		Mode:        rr.Mode,
		Controllers: rr.Controllers,
		Report: RouteReport{
			TotalSC:         rep.TotalSC,
			ClockSC:         rep.ClockSC,
			CtrlSC:          rep.CtrlSC,
			UngatedSC:       rep.UngatedSC,
			ClockWirelength: rep.ClockWirelength,
			StarWirelength:  rep.StarWirelength,
			Gates:           rep.NumGates,
			Buffers:         rep.NumBuffers,
			MaxDelayPs:      rep.MaxDelayPs,
			SkewPs:          rep.SkewPs,
		},
		Stats: RouteStats{
			Merges:           st.Merges,
			Snakes:           st.Snakes,
			PairEvals:        st.PairEvals,
			PairEvalsSkipped: st.PairEvalsSkipped,
			PairEvalsCached:  st.PairEvalsCached,
		},
		RouteMs: res.RouteMs,
	}
}

// Handler returns the service mux:
//
//	POST /v1/route        one routing request
//	POST /v1/route/batch  a JSON array of requests, answered per item
//	GET  /healthz         liveness + drain state
//	GET  /readyz          readiness: warming | ready | draining
//	GET  /metrics         Prometheus text exposition of the registry
//	GET  /debug/vars      expvar (includes the registry snapshot)
//
// The whole mux is wrapped in panic isolation: a panic escaping any
// handler answers that one request with a typed 500 instead of unwinding
// the serving goroutine.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/route", s.handleRoute)
	mux.HandleFunc("POST /v1/route/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/cache/{digest}", s.handleCachePeek)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return s.recoverMiddleware(mux)
}

// CacheEntryResponse is the body of a GET /v1/cache/{digest} hit: the full
// internal-fidelity RouteResult, not the trimmed wire RouteResponse, so a
// peer-fetching front tier caches exactly what the owning shard had.
type CacheEntryResponse struct {
	Digest string      `json:"digest"`
	Result RouteResult `json:"result"`
}

// handleCachePeek answers a cache lookup by digest without ever routing: a
// hit returns the stored result, a miss is a plain 404. This is the
// shard-side half of the cluster's peer fetch — after a rebalance the new
// owner's front tier asks the old owner's cache for the result by digest
// before paying for a recompute. Peeking marks the entry visited, as any
// hit does: a peer-fetched entry is demonstrably hot.
func (s *Server) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if !isHexDigest(digest) {
		s.writeError(w, fmt.Errorf("%w: %q is not a request digest (64 hex chars)", ErrBadRequest, digest))
		return
	}
	res, ok := s.cache.Get(digest)
	if !ok {
		s.inst.peekMisses.Inc()
		writeJSON(w, http.StatusNotFound, &ErrorResponse{
			Error: "no cached result for digest " + digest, Kind: "not_found"})
		return
	}
	s.inst.peekHits.Inc()
	writeJSON(w, http.StatusOK, &CacheEntryResponse{Digest: digest, Result: *res})
}

// handleMetricsJSON exposes the registry as one mergeable obs.Snapshot —
// the scrape format behind the cluster front tier's aggregated /metrics.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Metrics.Snapshot())
}

// recoverMiddleware is the outermost line of panic defense: handler-level
// panics (decode paths, response building — anything outside the already
// isolated worker executions) degrade to a 500 on that request alone. If
// the handler had already begun its response the write is best-effort;
// the goroutine still survives.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.inst.panics.Inc()
				writeJSON(w, http.StatusInternalServerError, &ErrorResponse{
					Error: fmt.Sprintf("%v: handler: %v", ErrPanic, rec), Kind: "panic"})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		s.writeError(w, fmt.Errorf("%w: reading body: %w", ErrBadRequest, err))
		return
	}
	if len(body) > maxBodyBytes {
		s.writeError(w, fmt.Errorf("%w: body exceeds %d bytes", ErrBadRequest, maxBodyBytes))
		return
	}
	req, err := DecodeRouteRequest(body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	rr, err := req.Resolve()
	if err != nil {
		s.writeError(w, err)
		return
	}
	res, info, err := s.submit(r.Context(), rr)
	if err != nil {
		s.writeError(w, err)
		return
	}
	etag := `"` + info.digest + `"`
	w.Header().Set("ETag", etag)
	if info.cached && r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	s.chaos.beforeWrite(r.Context())
	writeJSON(w, http.StatusOK, buildResponse(rr, info, res))
}

// BatchItem is one element of a batch response: the status the request
// would have received standalone, with either the response or the error.
type BatchItem struct {
	Status   int            `json:"status"`
	Response *RouteResponse `json:"response,omitempty"`
	Error    *ErrorResponse `json:"error,omitempty"`
}

// handleBatch fans a JSON array of requests through the same
// cache/coalescer/queue pipeline concurrently and answers 200 with a
// per-item array in request order. Identical items in one batch coalesce
// to a single execution like any other concurrent identical requests.
// Items fail independently: a malformed, erroring, or outright panicking
// item yields its own error object while every sibling completes
// normally.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.inst.batches.Inc()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil || len(body) > maxBodyBytes {
		s.writeError(w, fmt.Errorf("%w: bad batch body", ErrBadRequest))
		return
	}
	var reqs []RouteRequest
	if err := json.Unmarshal(body, &reqs); err != nil {
		s.writeError(w, fmt.Errorf("%w: %w", ErrBadRequest, err))
		return
	}
	if len(reqs) == 0 {
		s.writeError(w, fmt.Errorf("%w: empty batch", ErrBadRequest))
		return
	}
	items := make([]BatchItem, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Per-item panic isolation: one poisoned item must not fail
			// its siblings (or leak the batch's WaitGroup and hang the
			// whole response).
			defer func() {
				if rec := recover(); rec != nil {
					s.inst.panics.Inc()
					items[i] = BatchItem{Status: http.StatusInternalServerError, Error: &ErrorResponse{
						Error: fmt.Sprintf("%v: batch item %d: %v", ErrPanic, i, rec), Kind: "panic"}}
				}
			}()
			rr, err := reqs[i].Resolve()
			if err != nil {
				items[i] = errorItem(s, err)
				return
			}
			res, info, err := s.submit(r.Context(), rr)
			if err != nil {
				items[i] = errorItem(s, err)
				return
			}
			items[i] = BatchItem{Status: http.StatusOK, Response: buildResponse(rr, info, res)}
		}(i)
	}
	wg.Wait()
	s.chaos.beforeWrite(r.Context())
	writeJSON(w, http.StatusOK, items)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.Draining() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]any{
		"status":     state,
		"queueDepth": s.QueueDepth(),
		"workers":    s.cfg.Workers,
		"uptimeSec":  int(time.Since(s.startedAt).Seconds()),
	})
}

// handleReadyz is the readiness probe, distinct from /healthz liveness: a
// warming server (snapshot load still running) is alive but should not
// receive balanced traffic yet; a draining one is alive but on its way
// out. Only "ready" answers 200.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	state := s.Readiness()
	status := http.StatusOK
	if state != "ready" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"status":       state,
		"cacheEntries": s.cache.Len(),
		"queueDepth":   s.QueueDepth(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.cfg.Metrics.WriteProm(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// classify maps a failure to its HTTP status and wire kind.
func classify(err error) (int, string) {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrBadRequest),
		errors.Is(err, gatedclock.ErrInvalidBenchmark),
		errors.Is(err, gatedclock.ErrInvalidStream),
		errors.Is(err, core.ErrInvalidInput):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, gatedclock.ErrCanceled):
		return statusClientClosedRequest, "canceled"
	case errors.Is(err, ErrPanic):
		return http.StatusInternalServerError, "panic"
	case errors.Is(err, ErrInjected):
		return http.StatusInternalServerError, "injected"
	case errors.Is(err, verify.ErrInvariant):
		return http.StatusInternalServerError, "invariant"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// statusClientClosedRequest is the de-facto status (nginx's 499) for a
// request whose client went away; the body is written for the benefit of
// proxies and tests, the client itself is gone.
const statusClientClosedRequest = 499

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, kind := classify(err)
	switch status {
	case http.StatusBadRequest:
		s.inst.badRequests.Inc()
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	writeJSON(w, status, &ErrorResponse{Error: err.Error(), Kind: kind})
}

// errorItem is writeError for one batch element.
func errorItem(s *Server, err error) BatchItem {
	status, kind := classify(err)
	if status == http.StatusBadRequest {
		s.inst.badRequests.Inc()
	}
	return BatchItem{Status: status, Error: &ErrorResponse{Error: err.Error(), Kind: kind}}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
