package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gatedclock "repro"
)

// testBody is a small valid request used throughout.
const testBody = `{"config":{"numSinks":16,"seed":7,"numInstr":6,"streamLen":120},"mode":"gated-red"}`

// distinctBody returns a valid request unique to seed.
func distinctBody(seed int) string {
	return fmt.Sprintf(`{"config":{"numSinks":12,"seed":%d,"numInstr":6,"streamLen":100}}`, seed)
}

// post drives the handler with one request and returns the recorder.
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeResp(t *testing.T, rec *httptest.ResponseRecorder) *RouteResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body.String())
	}
	var resp RouteResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	return &resp
}

func shutdownOrFail(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// fakeRoute returns a deterministic result derived from the digest without
// doing any real routing.
func fakeRoute(_ context.Context, rr *Resolved, _ gatedclock.Options) (*RouteResult, error) {
	return &RouteResult{TreeDigest: "tree-of-" + rr.Digest()[:16]}, nil
}

// TestRealRouteEndToEnd exercises the production pipeline once: a real
// (small) instance through decode → digest → queue → route → evaluate,
// with the independent verifier armed on the miss.
func TestRealRouteEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2, Verify: true})
	defer shutdownOrFail(t, s)
	h := s.Handler()

	rec := post(h, "/v1/route", testBody)
	resp := decodeResp(t, rec)
	if resp.Cached || resp.Coalesced {
		t.Errorf("first request reported cached=%v coalesced=%v", resp.Cached, resp.Coalesced)
	}
	if resp.Sinks != 16 || resp.Stats.Merges != 15 {
		t.Errorf("sinks %d merges %d, want 16 and 15", resp.Sinks, resp.Stats.Merges)
	}
	if resp.Report.TotalSC <= 0 || resp.Report.ClockSC <= 0 || resp.Report.CtrlSC <= 0 {
		t.Errorf("degenerate report: %+v", resp.Report)
	}
	if len(resp.TreeDigest) != 64 || len(resp.Digest) != 64 {
		t.Errorf("digests not hex sha256: tree %q req %q", resp.TreeDigest, resp.Digest)
	}

	// Second identical request: a cache hit with the bit-identical tree.
	resp2 := decodeResp(t, post(h, "/v1/route", testBody))
	if !resp2.Cached {
		t.Error("second identical request was not served from cache")
	}
	if resp2.TreeDigest != resp.TreeDigest {
		t.Errorf("cache hit tree digest %s != original %s", resp2.TreeDigest, resp.TreeDigest)
	}
	if resp2.RouteResult != resp.RouteResult {
		t.Error("cached result differs from the original one")
	}
}

// TestCoalesceSingleExecution proves the singleflight guarantee: N
// concurrent identical requests lead to exactly one route execution, and
// every response carries the same tree digest.
func TestCoalesceSingleExecution(t *testing.T) {
	const n = 8
	var executions atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	s := New(Config{Workers: 4, route: func(ctx context.Context, rr *Resolved, opts gatedclock.Options) (*RouteResult, error) {
		if executions.Add(1) == 1 {
			close(started)
		}
		<-release
		return fakeRoute(ctx, rr, opts)
	}})
	defer shutdownOrFail(t, s)
	h := s.Handler()

	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = post(h, "/v1/route", testBody)
		}(i)
	}
	<-started
	// Wait until every request is either the leader or has joined it,
	// then release the single execution.
	deadline := time.Now().Add(5 * time.Second)
	for s.inst.coalesced.Value() < n-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("%d identical concurrent requests ran %d executions, want 1", n, got)
	}
	var leaders, joiners int
	tree := ""
	for _, rec := range recs {
		resp := decodeResp(t, rec)
		if tree == "" {
			tree = resp.TreeDigest
		} else if resp.TreeDigest != tree {
			t.Errorf("tree digest %s differs from %s", resp.TreeDigest, tree)
		}
		if resp.Coalesced {
			joiners++
		} else {
			leaders++
		}
	}
	if leaders != 1 || joiners != n-1 {
		t.Errorf("leaders %d joiners %d, want 1 and %d", leaders, joiners, n-1)
	}
	if got := s.inst.coalesced.Value(); got != n-1 {
		t.Errorf("serve_coalesced_total %d, want %d", got, n-1)
	}
	if got := s.inst.misses.Value(); got != 1 {
		t.Errorf("serve_cache_misses_total %d, want 1", got)
	}
}

// TestQueueFullSheds429 proves explicit backpressure: with one worker
// busy and the one-slot queue occupied, the next request is refused with
// 429 and a Retry-After header instead of blocking.
func TestQueueFullSheds429(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 1, route: func(ctx context.Context, rr *Resolved, opts gatedclock.Options) (*RouteResult, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return fakeRoute(ctx, rr, opts)
	}})
	defer shutdownOrFail(t, s)
	h := s.Handler()

	// A occupies the worker.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); post(h, "/v1/route", distinctBody(1)) }()
	<-started

	// B occupies the queue slot.
	wg.Add(1)
	go func() { defer wg.Done(); post(h, "/v1/route", distinctBody(2)) }()
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.QueueDepth() != 1 {
		t.Fatal("request B never occupied the queue slot")
	}

	// C must be shed, now, without blocking.
	rec := post(h, "/v1/route", distinctBody(3))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d with full queue, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Kind != "overloaded" {
		t.Errorf("shed body %s, want kind=overloaded", rec.Body.String())
	}
	if got := s.inst.shed.Value(); got != 1 {
		t.Errorf("serve_shed_total %d, want 1", got)
	}

	close(release)
	wg.Wait()
}

// TestMetricsEndpointReflectsLoad drives a known mix and checks the
// Prometheus text on /metrics for the exact counter values.
func TestMetricsEndpointReflectsLoad(t *testing.T) {
	s := New(Config{Workers: 2, route: fakeRoute})
	defer shutdownOrFail(t, s)
	h := s.Handler()

	decodeResp(t, post(h, "/v1/route", testBody))        // miss
	decodeResp(t, post(h, "/v1/route", testBody))        // hit
	decodeResp(t, post(h, "/v1/route", testBody))        // hit
	decodeResp(t, post(h, "/v1/route", distinctBody(9))) // miss
	if rec := post(h, "/v1/route", `{"benchmark":"r99"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid benchmark answered %d, want 400", rec.Code)
	}

	rec := get(h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"serve_requests_total 4", // the 400 is refused before submission
		"serve_cache_hits_total 2",
		"serve_cache_misses_total 2",
		"serve_bad_requests_total 1",
		"serve_shed_total 0",
		"# TYPE serve_route_ms histogram",
		"serve_route_ms_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestGracefulShutdownDrains: Shutdown lets queued and in-flight work
// finish, refuses new work with 503, and returns cleanly.
func TestGracefulShutdownDrains(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s := New(Config{Workers: 1, route: func(ctx context.Context, rr *Resolved, opts gatedclock.Options) (*RouteResult, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return fakeRoute(ctx, rr, opts)
	}})
	h := s.Handler()

	var rec *httptest.ResponseRecorder
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); rec = post(h, "/v1/route", testBody) }()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// New work is refused while draining.
	if rec503 := post(h, "/v1/route", distinctBody(5)); rec503.Code != http.StatusServiceUnavailable {
		t.Errorf("request during drain answered %d, want 503", rec503.Code)
	}
	if hz := get(h, "/healthz"); hz.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain answered %d, want 503", hz.Code)
	}

	close(release)
	wg.Wait()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The in-flight request completed despite the drain.
	resp := decodeResp(t, rec)
	if resp.TreeDigest == "" {
		t.Error("drained request returned an empty result")
	}
}

// TestShutdownDeadlineCancelsInflight: when the drain budget expires, the
// in-flight execution is canceled and its waiter gets the error.
func TestShutdownDeadlineCancelsInflight(t *testing.T) {
	started := make(chan struct{})
	s := New(Config{Workers: 1, route: func(ctx context.Context, rr *Resolved, opts gatedclock.Options) (*RouteResult, error) {
		close(started)
		<-ctx.Done()
		return nil, fmt.Errorf("%w: %w", gatedclock.ErrCanceled, ctx.Err())
	}})

	rr := mustResolve(t, testBody)
	done := make(chan error, 1)
	go func() {
		_, _, err := s.submit(context.Background(), rr)
		done <- err
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Shutdown returned %v, want deadline error", err)
	}
	if err := <-done; !errors.Is(err, gatedclock.ErrCanceled) {
		t.Fatalf("canceled waiter got %v, want ErrCanceled", err)
	}
}

// TestClientDisconnectCancelsExecution: when the last waiter goes away the
// execution's context is canceled — nobody is left to use the result.
func TestClientDisconnectCancelsExecution(t *testing.T) {
	started := make(chan struct{})
	canceled := make(chan struct{})
	s := New(Config{Workers: 1, route: func(ctx context.Context, rr *Resolved, opts gatedclock.Options) (*RouteResult, error) {
		close(started)
		<-ctx.Done()
		close(canceled)
		return nil, ctx.Err()
	}})
	defer shutdownOrFail(t, s)

	rr := mustResolve(t, testBody)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := s.submit(ctx, rr)
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, gatedclock.ErrCanceled) {
		t.Fatalf("disconnected waiter got %v, want ErrCanceled", err)
	}
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("execution context was never canceled after the last waiter left")
	}
}

// TestPerRequestDeadline: the server's MaxTimeout bounds every route, and
// an execution that outlives it surfaces as 504.
func TestPerRequestDeadline(t *testing.T) {
	s := New(Config{Workers: 1, MaxTimeout: 10 * time.Millisecond, route: func(ctx context.Context, rr *Resolved, opts gatedclock.Options) (*RouteResult, error) {
		<-ctx.Done()
		return nil, fmt.Errorf("%w: %w", gatedclock.ErrCanceled, ctx.Err())
	}})
	defer shutdownOrFail(t, s)
	rec := post(s.Handler(), "/v1/route", `{"config":{"numSinks":12,"seed":1}}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request answered %d (%s), want 504", rec.Code, rec.Body.String())
	}
}

// TestBadRequests: malformed inputs — retired fields among them — answer
// 400 with a typed kind, before any queueing; the retired batch endpoint
// answers 404.
func TestBadRequests(t *testing.T) {
	s := New(Config{Workers: 1, route: fakeRoute})
	defer shutdownOrFail(t, s)
	h := s.Handler()
	cases := []struct {
		name, body string
	}{
		{"empty object", `{}`},
		{"unknown benchmark", `{"benchmark":"r99"}`},
		{"both bench and config", `{"benchmark":"r1","config":{"numSinks":4}}`},
		{"unknown field", `{"benchmark":"r1","controlers":2}`},
		{"bad mode", `{"benchmark":"r1","mode":"turbo"}`},
		{"controllers not power of two", `{"benchmark":"r1","controllers":3}`},
		{"retired timeoutMs", `{"benchmark":"r1","timeoutMs":500}`},
		{"retired background", `{"benchmark":"r1","background":true}`},
		{"trailing garbage", `{"benchmark":"r1"} extra`},
		{"syntax error", `{"benchmark":`},
		{"zero sinks", `{"config":{"numSinks":0}}`},
		{"stream out of range", `{"config":{"numSinks":4,"numInstr":4},"stream":[0,1,9]}`},
		{"bad markov", `{"config":{"numSinks":4,"stay":0.9,"step":0.9}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(h, "/v1/route", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d (%s), want 400", rec.Code, rec.Body.String())
			}
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Kind != "bad_request" {
				t.Errorf("body %s, want kind=bad_request", rec.Body.String())
			}
		})
	}
	if rec := post(h, "/v1/route/batch", "["+testBody+"]"); rec.Code != http.StatusNotFound {
		t.Errorf("POST /v1/route/batch answered %d, want 404", rec.Code)
	}
	if got := s.inst.requests.Value(); got != 0 {
		t.Errorf("bad requests reached submit: serve_requests_total %d, want 0", got)
	}
}

// TestCachePeek: a cache peek answers the bare RouteResult the route
// response embedded, a miss or a malformed digest answers a typed error,
// and the mux serves nothing beyond its listed endpoints.
func TestCachePeek(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownOrFail(t, s)
	h := s.Handler()

	resp := decodeResp(t, post(h, "/v1/route", testBody))
	rec := get(h, "/v1/cache/"+resp.Digest)
	if rec.Code != http.StatusOK {
		t.Fatalf("peek of a cached digest: status %d, body %s", rec.Code, rec.Body.String())
	}
	dec := json.NewDecoder(rec.Body)
	dec.DisallowUnknownFields()
	var got RouteResult
	if err := dec.Decode(&got); err != nil {
		t.Errorf("peek body is not a bare RouteResult: %v", err)
	} else if got != resp.RouteResult {
		t.Errorf("peek answered %+v, the route embedded %+v", got, resp.RouteResult)
	}

	for _, tc := range []struct {
		path, kind string
		code       int
	}{
		{"/v1/cache/" + strings.Repeat("0", 64), "not_found", http.StatusNotFound},
		{"/v1/cache/not-a-digest", "bad_request", http.StatusBadRequest},
	} {
		rec := get(h, tc.path)
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != tc.code || err != nil || er.Kind != tc.kind {
			t.Errorf("GET %s answered %d %s, want %d kind=%s", tc.path, rec.Code, rec.Body.String(), tc.code, tc.kind)
		}
	}
	if rec := get(h, "/debug/vars"); rec.Code != http.StatusNotFound {
		t.Errorf("GET /debug/vars answered %d, want 404", rec.Code)
	}
}

// TestCacheEviction: the cache holds at most CacheSize entries and evicts
// the oldest unvisited one.
func TestCacheEviction(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: 2, route: fakeRoute})
	defer shutdownOrFail(t, s)
	h := s.Handler()

	a, b, c := distinctBody(1), distinctBody(2), distinctBody(3)
	decodeResp(t, post(h, "/v1/route", a))
	decodeResp(t, post(h, "/v1/route", b))
	decodeResp(t, post(h, "/v1/route", c)) // evicts a
	if got := s.cache.Len(); got != 2 {
		t.Fatalf("cache holds %d entries, want 2", got)
	}
	if resp := decodeResp(t, post(h, "/v1/route", b)); !resp.Cached {
		t.Error("recently used entry was evicted")
	}
	if resp := decodeResp(t, post(h, "/v1/route", a)); resp.Cached {
		t.Error("evicted entry still served from cache")
	}
}

// mustResolve parses and resolves a JSON body.
func mustResolve(t *testing.T, body string) *Resolved {
	t.Helper()
	req, err := DecodeRouteRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return rr
}
