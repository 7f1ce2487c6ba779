package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	gatedclock "repro"
)

// panicOnDigest builds a route seam that panics for one specific request
// digest and routes everything else normally.
func panicOnDigest(digest string) routeFunc {
	return func(ctx context.Context, rr *Resolved, opts gatedclock.Options) (*RouteResult, error) {
		if rr.Digest() == digest {
			panic("test: route exploded")
		}
		return hexRoute(ctx, rr, opts)
	}
}

// TestPanicIsolation: a panicking route execution becomes a typed 500 of
// kind "panic" with serve_panics_total incremented, and the server keeps
// serving its next request as if nothing happened.
func TestPanicIsolation(t *testing.T) {
	bomb := distinctBody(666)
	s := New(Config{Workers: 2, route: panicOnDigest(mustResolve(t, bomb).Digest())})
	defer shutdownOrFail(t, s)

	rec := post(s.Handler(), "/v1/route", bomb)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking route answered %d, want 500; body %s", rec.Code, rec.Body.String())
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("panic response is not a typed error body: %v", err)
	}
	if er.Kind != "panic" || !strings.Contains(er.Error, "recovered panic") {
		t.Fatalf("panic surfaced as kind=%q error=%q, want kind=panic mentioning the recovery", er.Kind, er.Error)
	}
	if got := s.Metrics().Snapshot()["serve_panics_total"].Value; got != 1 {
		t.Fatalf("serve_panics_total %d, want 1", got)
	}

	// The process — and this very server — are still fine.
	resp := decodeResp(t, post(s.Handler(), "/v1/route", testBody))
	if resp.TreeDigest == "" {
		t.Fatal("post-panic request returned an empty result")
	}
}

// TestBatchPartialFailure: one panicking item and one invalid item in a
// batch fail alone — every sibling completes normally with its own result.
func TestBatchPartialFailure(t *testing.T) {
	bomb := distinctBody(667)
	s := New(Config{Workers: 2, route: panicOnDigest(mustResolve(t, bomb).Digest())})
	defer shutdownOrFail(t, s)

	batch := fmt.Sprintf(`[%s,%s,%s,{"benchmark":"r99"}]`, testBody, bomb, distinctBody(5))
	rec := post(s.Handler(), "/v1/route/batch", batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d, want 200 (items fail individually): %s", rec.Code, rec.Body.String())
	}
	var items []BatchItem
	if err := json.Unmarshal(rec.Body.Bytes(), &items); err != nil || len(items) != 4 {
		t.Fatalf("batch answered %d items (err %v), want 4", len(items), err)
	}
	for i, wantStatus := range []int{200, 500, 200, 400} {
		if items[i].Status != wantStatus {
			t.Errorf("item %d: status %d, want %d (error: %+v)", i, items[i].Status, wantStatus, items[i].Error)
		}
	}
	if items[0].Response == nil || items[2].Response == nil {
		t.Fatal("sibling items of the panicking item lost their responses")
	}
	if items[1].Error == nil || items[1].Error.Kind != "panic" {
		t.Fatalf("panicking item error %+v, want kind=panic", items[1].Error)
	}
	if items[3].Error == nil || items[3].Error.Kind != "bad_request" {
		t.Fatalf("invalid item error %+v, want kind=bad_request", items[3].Error)
	}
	if got := s.Metrics().Snapshot()["serve_panics_total"].Value; got < 1 {
		t.Fatalf("serve_panics_total %d, want >= 1", got)
	}
}

// TestHandlerPanicRecovered: the outermost middleware catches panics that
// escape outside the worker pool (decode paths, response building).
func TestHandlerPanicRecovered(t *testing.T) {
	s := New(Config{Workers: 1, route: fakeRoute})
	defer shutdownOrFail(t, s)
	h := s.recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/anything", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Kind != "panic" {
		t.Fatalf("body %s (err %v), want a typed kind=panic error", rec.Body.String(), err)
	}
	if got := s.Metrics().Snapshot()["serve_panics_total"].Value; got != 1 {
		t.Fatalf("serve_panics_total %d, want 1", got)
	}
}

// TestChaosInjectionExactCounts: a seeded schedule injects *exactly* one
// fault per period of route executions — the counts are assertable, not
// probabilistic, and identical across reruns.
func TestChaosInjectionExactCounts(t *testing.T) {
	const n, period = 40, 10
	run := func(chaos Chaos) (statuses map[int]int, snap map[string]int64) {
		s := New(Config{Workers: 1, Chaos: chaos, route: hexRoute})
		defer shutdownOrFail(t, s)
		statuses = map[int]int{}
		for i := 0; i < n; i++ {
			rec := post(s.Handler(), "/v1/route", distinctBody(1000+i))
			statuses[rec.Code]++
		}
		snap = map[string]int64{}
		for name, inst := range s.Metrics().Snapshot() {
			snap[name] = inst.Value
		}
		return statuses, snap
	}

	statuses, snap := run(Chaos{Seed: 7, ErrorPeriod: period})
	if statuses[500] != n/period || statuses[200] != n-n/period {
		t.Fatalf("error injection: statuses %v, want exactly %d×500", statuses, n/period)
	}
	if snap["serve_injected_errors_total"] != n/period {
		t.Fatalf("serve_injected_errors_total %d, want %d", snap["serve_injected_errors_total"], n/period)
	}

	statuses, snap = run(Chaos{Seed: 7, PanicPeriod: period})
	if statuses[500] != n/period {
		t.Fatalf("panic injection: statuses %v, want exactly %d×500", statuses, n/period)
	}
	if snap["serve_injected_panics_total"] != n/period || snap["serve_panics_total"] != n/period {
		t.Fatalf("injected %d, recovered %d — every injected panic must be recovered and counted, want %d of each",
			snap["serve_injected_panics_total"], snap["serve_panics_total"], n/period)
	}

	// Same seed, same request sequence → identical outcome.
	statuses2, _ := run(Chaos{Seed: 7, PanicPeriod: period})
	if statuses2[500] != statuses[500] || statuses2[200] != statuses[200] {
		t.Fatalf("rerun diverged: %v vs %v", statuses2, statuses)
	}
}

// TestChaosInjectedKind: an injected 5xx is distinguishable from a real
// failure — kind "injected", not "internal".
func TestChaosInjectedKind(t *testing.T) {
	s := New(Config{Workers: 1, Chaos: Chaos{Seed: 1, ErrorPeriod: 1}, route: hexRoute})
	defer shutdownOrFail(t, s)
	rec := post(s.Handler(), "/v1/route", testBody)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Kind != "injected" {
		t.Fatalf("body %s, want kind=injected", rec.Body.String())
	}
}

// TestParseChaos covers the gcrd -chaos flag grammar.
func TestParseChaos(t *testing.T) {
	c, err := ParseChaos("seed=42,panic=200,error=100,latency=50:10ms,slow=100:5ms")
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	want := Chaos{Seed: 42, PanicPeriod: 200, ErrorPeriod: 100,
		LatencyPeriod: 50, Latency: 10 * time.Millisecond, SlowPeriod: 100, Slow: 5 * time.Millisecond}
	if c != want {
		t.Fatalf("parsed %+v, want %+v", c, want)
	}
	if c, err := ParseChaos("  "); err != nil || c.enabled() {
		t.Fatalf("blank spec: %+v, %v — want the disabled zero value", c, err)
	}
	for _, bad := range []string{
		"panic", "panic=0", "panic=-3", "panic=x",
		"latency=10ms", "latency=0:10ms", "latency=50:nope", "latency=50:-1ms",
		"seed=abc", "turbulence=9", "panic=200,,error=100",
	} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) accepted a malformed spec", bad)
		}
	}
}
