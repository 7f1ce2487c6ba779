package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	gatedclock "repro"
	"repro/internal/core"
	"repro/internal/verify"
)

// maxBodyBytes bounds a request body; the largest legitimate request (an
// explicit MaxLen stream spelled out in JSON) stays well under it.
const maxBodyBytes = 64 << 20

// RouteResponse is the JSON body of a successful POST /v1/route: the
// request's identity, how this answer was satisfied, and the result.
type RouteResponse struct {
	// Digest is the canonical request key.
	Digest string `json:"digest"`
	// Cached reports a result-cache hit; Coalesced reports a join onto an
	// identical in-flight execution.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced"`

	Benchmark   string `json:"benchmark,omitempty"`
	Sinks       int    `json:"sinks"`
	Mode        string `json:"mode"`
	Controllers int    `json:"controllers"`

	RouteResult
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Kind classifies the failure: bad_request, overloaded, draining,
	// canceled, deadline, panic, injected, invariant, internal.
	Kind string `json:"kind"`
}

// BuildRouteResponse wraps a result in its request's identity. The
// cluster front tier answers L1 and peer hits through it, so those bodies
// equal what the owning shard would have sent, up to the cached and
// coalesced markers, which describe how *this* response was satisfied.
func BuildRouteResponse(rr *Resolved, digest string, cached, coalesced bool, res *RouteResult) *RouteResponse {
	return &RouteResponse{
		Digest:      digest,
		Cached:      cached,
		Coalesced:   coalesced,
		Benchmark:   rr.Cfg.Name,
		Sinks:       rr.Cfg.NumSinks,
		Mode:        rr.Mode,
		Controllers: rr.Controllers,
		RouteResult: *res,
	}
}

// Handler returns the service mux:
//
//	POST /v1/route           one routing request
//	GET  /v1/cache/{digest}  a cached result by request digest (never routes)
//	GET  /healthz            liveness + drain state
//	GET  /readyz             readiness: warming | ready | draining
//	GET  /metrics            Prometheus text exposition of the registry
//
// The whole mux is wrapped in panic isolation: a panic escaping any
// handler answers that one request with a typed 500 instead of unwinding
// the serving goroutine.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/route", s.handleRoute)
	mux.HandleFunc("GET /v1/cache/{digest}", s.handleCachePeek)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.recoverMiddleware(mux)
}

// handleCachePeek answers a cache lookup by digest without ever routing: a
// hit returns the stored RouteResult itself, the shape the cache, the
// snapshot and the cluster L1 hold, and a miss is a plain 404. This is the
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
	writeJSON(w, http.StatusOK, res)
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
	s.chaos.beforeWrite(r.Context())
	writeJSON(w, http.StatusOK, BuildRouteResponse(rr, info.digest, info.cached, info.coalesced, res))
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
