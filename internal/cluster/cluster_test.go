package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/serve"
)

// fakeNet is an in-process network: it dispatches round trips to
// registered handlers by host name, can take any host "down" (connection
// refused) and counts round trips by method and path — the deterministic,
// race-friendly substrate for every routing/failover test that doesn't
// need real process lifecycles.
type fakeNet struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	down     map[string]bool
	trips    map[string]int // "METHOD /path" → round trips
}

func newFakeNet() *fakeNet {
	return &fakeNet{handlers: map[string]http.Handler{}, down: map[string]bool{}, trips: map[string]int{}}
}

// count returns the round trips so far whose "METHOD /path" starts with prefix.
func (f *fakeNet) count(prefix string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for k, v := range f.trips {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}

func (f *fakeNet) add(host string, h http.Handler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.handlers[host] = h
}

func (f *fakeNet) setDown(host string, dead bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down[host] = dead
}

func (f *fakeNet) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	h, ok := f.handlers[req.URL.Host]
	dead := f.down[req.URL.Host]
	f.trips[req.Method+" "+req.URL.Path]++
	f.mu.Unlock()
	if !ok || dead {
		return nil, fmt.Errorf("dial tcp %s: connection refused", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// testCluster wires n real serve.Servers behind a Router over a fakeNet.
type testCluster struct {
	rt      *Router
	servers []*serve.Server
	net     *fakeNet
	hosts   []string
}

func newTestCluster(t *testing.T, n int, mutate func(*Config), scfg serve.Config) *testCluster {
	t.Helper()
	fake := newFakeNet()
	tc := &testCluster{net: fake}
	var urls []string
	for i := 0; i < n; i++ {
		srv := serve.New(scfg)
		t.Cleanup(func() { srv.Shutdown(t.Context()) })
		host := fmt.Sprintf("shard%d:1", i)
		fake.add(host, srv.Handler())
		tc.servers = append(tc.servers, srv)
		tc.hosts = append(tc.hosts, host)
		urls = append(urls, "http://"+host)
	}
	cfg := Config{
		Shards:        urls,
		Transport:     fake,
		ProbeInterval: -1, // tests drive ProbeNow explicitly
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.ProbeNow()
	tc.rt = rt
	return tc
}

// post sends one body through the front tier and decodes the answer.
func (tc *testCluster) post(t *testing.T, body string) (*httptest.ResponseRecorder, *serve.RouteResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/route", strings.NewReader(body))
	rec := httptest.NewRecorder()
	tc.rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	var resp serve.RouteResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad 200 body: %v\n%s", err, rec.Body.String())
	}
	return rec, &resp
}

// postSingle routes the same body through a standalone single-node server.
func postSingle(t *testing.T, srv *serve.Server, body string) *serve.RouteResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/route", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("single-node answered %d: %s", rec.Code, rec.Body.String())
	}
	var resp serve.RouteResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// TestClusterDigestIdentityGolden: the cluster path answers with the same
// request digest and tree digest as a single node, for a named benchmark
// and a synthetic config, across L1-cold and L1-warm lookups.
func TestClusterDigestIdentityGolden(t *testing.T) {
	single := serve.New(serve.Config{})
	defer single.Shutdown(t.Context())
	tc := newTestCluster(t, 3, nil, serve.Config{})

	for _, body := range []string{
		`{"benchmark":"r1"}`,
		`{"config":{"numSinks":24,"seed":9,"numInstr":6,"streamLen":120},"mode":"gated-red"}`,
	} {
		want := postSingle(t, single, body)
		for pass := 0; pass < 2; pass++ { // cold, then L1-warm
			rec, got := tc.post(t, body)
			if got == nil {
				t.Fatalf("cluster answered %d for %s: %s", rec.Code, body, rec.Body.String())
			}
			if got.Digest != want.Digest || got.TreeDigest != want.TreeDigest {
				t.Fatalf("pass %d: cluster (%s/%s) != single (%s/%s) for %s\nsource=%s",
					pass, got.Digest[:12], got.TreeDigest[:12], want.Digest[:12], want.TreeDigest[:12],
					body, rec.Header().Get("X-Cluster-Source"))
			}
		}
	}
}

// TestClusterDigestIdentityProperty: random request configs routed through
// 1-, 2- and 3-shard clusters all agree with the single-node answer —
// sharding is invisible in the result bytes.
func TestClusterDigestIdentityProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test: skipped in -short")
	}
	single := serve.New(serve.Config{})
	defer single.Shutdown(t.Context())
	clusters := []*testCluster{
		newTestCluster(t, 1, nil, serve.Config{}),
		newTestCluster(t, 2, nil, serve.Config{}),
		newTestCluster(t, 3, nil, serve.Config{}),
	}
	modes := []string{"gated", "gated-red", "buffered"}
	rng := rand.New(rand.NewSource(2026))
	for i := 0; i < 18; i++ {
		body := fmt.Sprintf(
			`{"config":{"numSinks":%d,"seed":%d,"numInstr":%d,"streamLen":%d},"mode":%q}`,
			8+rng.Intn(28), rng.Intn(10000), 4+rng.Intn(4), 60+rng.Intn(80), modes[rng.Intn(len(modes))])
		want := postSingle(t, single, body)
		for ci, tcl := range clusters {
			rec, got := tcl.post(t, body)
			if got == nil {
				t.Fatalf("cluster[%d] answered %d for %s: %s", ci, rec.Code, body, rec.Body.String())
			}
			if got.Digest != want.Digest || got.TreeDigest != want.TreeDigest {
				t.Fatalf("cluster[%d] trees diverge for %s: %s vs %s", ci, body, got.TreeDigest, want.TreeDigest)
			}
		}
	}
}

// TestClusterPassthrough: satellite 1 — a shard's deliberate error
// surfaces through the front tier with status, kind and Retry-After
// intact, never rewrapped as a generic 502/503.
func TestClusterPassthrough(t *testing.T) {
	t.Run("429 with Retry-After", func(t *testing.T) {
		// Hand-built shards: every POST answers 429 + Retry-After: 7, every
		// peek misses. The front tier must relay the answer verbatim.
		fake := newFakeNet()
		overloaded := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet {
				if strings.HasSuffix(r.URL.Path, "/readyz") {
					w.Write([]byte(`{"status":"ready"}`))
					return
				}
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full","kind":"overloaded"}`))
		})
		fake.add("a:1", overloaded)
		fake.add("b:1", overloaded)
		rt, err := New(Config{Shards: []string{"http://a:1", "http://b:1"}, Transport: fake, ProbeInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		rt.ProbeNow()

		req := httptest.NewRequest(http.MethodPost, "/v1/route", strings.NewReader(`{"benchmark":"r1"}`))
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("Retry-After"); got != "7" {
			t.Fatalf("Retry-After %q, want the shard's own 7", got)
		}
		var eb serve.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Kind != "overloaded" {
			t.Fatalf("kind %q (err %v), want overloaded: %s", eb.Kind, err, rec.Body.String())
		}
	})

	t.Run("injected 500 keeps kind", func(t *testing.T) {
		// Every shard fault-injects every route; the front tier fails over,
		// runs out of candidates, and must surface kind=injected — not a
		// synthetic gateway error.
		tc := newTestCluster(t, 2, nil, serve.Config{Chaos: serve.Chaos{Seed: 5, ErrorPeriod: 1}})
		req := httptest.NewRequest(http.MethodPost, "/v1/route", strings.NewReader(`{"benchmark":"r1"}`))
		rec := httptest.NewRecorder()
		tc.rt.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500: %s", rec.Code, rec.Body.String())
		}
		var eb serve.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Kind != "injected" {
			t.Fatalf("kind %q, want injected: %s", eb.Kind, rec.Body.String())
		}
		if tc.rt.inst.failovers.Value() == 0 {
			t.Fatal("expected a failover attempt before surfacing the 500")
		}
	})

	t.Run("draining shard keeps kind and Retry-After", func(t *testing.T) {
		// A shard mid-drain answers 503 kind=draining with a Retry-After.
		// Without a probe the front tier still believes it selectable — the
		// passthrough contract holds on that stale-health path too.
		tc := newTestCluster(t, 1, nil, serve.Config{})
		tc.servers[0].Shutdown(t.Context())
		req := httptest.NewRequest(http.MethodPost, "/v1/route", strings.NewReader(`{"benchmark":"r1"}`))
		rec := httptest.NewRecorder()
		tc.rt.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body.String())
		}
		var eb serve.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Kind != "draining" {
			t.Fatalf("kind %q, want draining: %s", eb.Kind, rec.Body.String())
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatal("draining shard's Retry-After was dropped")
		}
	})

	t.Run("all shards unreachable", func(t *testing.T) {
		tc := newTestCluster(t, 2, nil, serve.Config{})
		tc.net.setDown("shard0:1", true)
		tc.net.setDown("shard1:1", true)
		req := httptest.NewRequest(http.MethodPost, "/v1/route", strings.NewReader(`{"benchmark":"r1"}`))
		rec := httptest.NewRecorder()
		tc.rt.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", rec.Code)
		}
		var eb serve.ErrorResponse
		json.Unmarshal(rec.Body.Bytes(), &eb)
		if eb.Kind != "shard_unreachable" || rec.Header().Get("Retry-After") == "" {
			t.Fatalf("kind %q header %q: want shard_unreachable with Retry-After",
				eb.Kind, rec.Header().Get("Retry-After"))
		}
	})

	t.Run("bad request stays local", func(t *testing.T) {
		tc := newTestCluster(t, 1, nil, serve.Config{})
		req := httptest.NewRequest(http.MethodPost, "/v1/route", strings.NewReader(`{"benchmark":"r99"}`))
		rec := httptest.NewRecorder()
		tc.rt.Handler().ServeHTTP(rec, req)
		var eb serve.ErrorResponse
		json.Unmarshal(rec.Body.Bytes(), &eb)
		if rec.Code != http.StatusBadRequest || eb.Kind != "bad_request" {
			t.Fatalf("got %d kind %q, want 400 bad_request", rec.Code, eb.Kind)
		}
	})
}

// TestClusterFailoverAndHandback: kill a key's owner → the ring successor
// recomputes it (rebalance); revive the owner → the next request lands
// back on its cache (hand-back, served as L2).
func TestClusterFailoverAndHandback(t *testing.T) {
	tc := newTestCluster(t, 2, func(c *Config) { c.L1Size = -1 }, serve.Config{})
	body := `{"config":{"numSinks":16,"seed":3,"numInstr":6,"streamLen":100},"mode":"gated-red"}`

	rec, first := tc.post(t, body)
	if first == nil {
		t.Fatalf("healthy route failed: %d %s", rec.Code, rec.Body.String())
	}
	owner := rec.Header().Get("X-Cluster-Shard")
	if owner == "" {
		t.Fatal("no X-Cluster-Shard header on a forwarded answer")
	}

	tc.net.setDown(owner, true)
	rec2, second := tc.post(t, body)
	if second == nil {
		t.Fatalf("failover route failed: %d %s", rec2.Code, rec2.Body.String())
	}
	if got := rec2.Header().Get("X-Cluster-Shard"); got == owner {
		t.Fatalf("request still served by downed shard %s", owner)
	}
	if second.TreeDigest != first.TreeDigest {
		t.Fatalf("failover recompute diverged: %s vs %s", second.TreeDigest, first.TreeDigest)
	}
	if tc.rt.inst.rebalances.Value() == 0 {
		t.Fatal("owner loss did not count as a rebalance")
	}

	tc.net.setDown(owner, false)
	tc.rt.ProbeNow()
	if tc.rt.inst.handbacks.Value() == 0 {
		t.Fatal("owner recovery did not count as a hand-back")
	}
	rec3, third := tc.post(t, body)
	if third == nil {
		t.Fatalf("post-recovery route failed: %d", rec3.Code)
	}
	if got := rec3.Header().Get("X-Cluster-Shard"); got != owner {
		t.Fatalf("after hand-back served by %s, want owner %s", got, owner)
	}
	if src := rec3.Header().Get("X-Cluster-Source"); src != "l2" {
		t.Fatalf("after hand-back source %q, want l2 (owner's cache survived)", src)
	}
	if third.TreeDigest != first.TreeDigest {
		t.Fatal("hand-back answer diverged")
	}
}

// TestClusterReadyzAggregation: all-ready → ready; one shard lost →
// degraded but still 200; all lost → unavailable 503.
func TestClusterReadyzAggregation(t *testing.T) {
	tc := newTestCluster(t, 3, nil, serve.Config{})
	get := func() (int, map[string]any) {
		req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
		rec := httptest.NewRecorder()
		tc.rt.Handler().ServeHTTP(rec, req)
		var body map[string]any
		json.Unmarshal(rec.Body.Bytes(), &body)
		return rec.Code, body
	}
	if code, body := get(); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("healthy cluster: %d %v", code, body)
	}
	tc.net.setDown("shard2:1", true)
	tc.rt.ProbeNow()
	if code, body := get(); code != http.StatusOK || body["status"] != "degraded" {
		t.Fatalf("one shard down: %d %v, want 200 degraded", code, body)
	}
	for _, h := range tc.hosts {
		tc.net.setDown(h, true)
	}
	tc.rt.ProbeNow()
	if code, body := get(); code != http.StatusServiceUnavailable || body["status"] != "unavailable" {
		t.Fatalf("all shards down: %d %v, want 503 unavailable", code, body)
	}
}

// TestClusterMetricsAggregation: /metrics merges the shards' serve_*
// series with the front tier's cluster_* series, and a quiet cluster
// scrapes byte-identically twice in a row — the aggregation itself is
// deterministic.
func TestClusterMetricsAggregation(t *testing.T) {
	tc := newTestCluster(t, 3, nil, serve.Config{})
	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(`{"config":{"numSinks":12,"seed":%d,"numInstr":6,"streamLen":100},"mode":"gated-red"}`, 600+i)
		if rec, resp := tc.post(t, body); resp == nil {
			t.Fatalf("route %d failed: %d", i, rec.Code)
		}
	}
	scrape := func() string {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		rec := httptest.NewRecorder()
		tc.rt.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics answered %d", rec.Code)
		}
		return rec.Body.String()
	}
	text := scrape()
	for _, want := range []string{"cluster_requests_total 6", "serve_requests_total", "serve_route_ms", "cluster_shards_ready 3"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	if again := scrape(); again != text {
		t.Fatalf("two quiet scrapes differ:\n--- first\n%s\n--- second\n%s", text, again)
	}
}

// TestClusterOneLookupPerMiss pins the lookup ladder on a settled cluster:
// with L1 off, each miss costs exactly one round trip — the forward —
// and no cache peek. The repeat is answered by the owner's own cache,
// labelled l2, with the same tree.
func TestClusterOneLookupPerMiss(t *testing.T) {
	tc := newTestCluster(t, 2, func(c *Config) { c.L1Size = -1 }, serve.Config{})
	body := `{"config":{"numSinks":12,"seed":31,"numInstr":6,"streamLen":100},"mode":"gated-red"}`
	var answers []*serve.RouteResponse
	var recs []*httptest.ResponseRecorder
	for i := 1; i <= 2; i++ {
		rec, resp := tc.post(t, body)
		if resp == nil {
			t.Fatalf("request %d answered %d: %s", i, rec.Code, rec.Body.String())
		}
		if got := tc.net.count("POST /v1/route"); got != i {
			t.Fatalf("after request %d: %d forwards, want %d", i, got, i)
		}
		if got := tc.net.count("GET /v1/cache/"); got != 0 {
			t.Fatalf("after request %d: %d cache peeks, want none", i, got)
		}
		answers, recs = append(answers, resp), append(recs, rec)
	}
	if src := recs[1].Header().Get("X-Cluster-Source"); src != "l2" {
		t.Fatalf("repeat answered from %q, want l2", src)
	}
	if a, b := recs[0].Header().Get("X-Cluster-Shard"), recs[1].Header().Get("X-Cluster-Shard"); a == "" || a != b {
		t.Fatalf("repeat served by %q, first by %q: want the owner both times", b, a)
	}
	if answers[1].TreeDigest != answers[0].TreeDigest {
		t.Fatalf("repeat tree %s, first %s", answers[1].TreeDigest, answers[0].TreeDigest)
	}
	if l2, fwd := tc.rt.inst.l2Hits.Value(), tc.rt.inst.forwards.Value(); l2 != 1 || fwd != 1 {
		t.Fatalf("cluster_l2_hits_total %d, cluster_forwards_total %d: want 1 and 1", l2, fwd)
	}
}
