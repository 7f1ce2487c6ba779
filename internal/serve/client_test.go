package serve

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// okHandler answers every request 200 with a minimal route body.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, &RouteResponse{Digest: "d", RouteResult: RouteResult{TreeDigest: "t"}})
	})
}

// statusHandler answers a fixed status with an ErrorResponse body and
// optional Retry-After.
func statusHandler(status int, retryAfter string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		writeJSON(w, status, &ErrorResponse{Error: "boom", Kind: "internal"})
	})
}

// breakerState reads the client_breaker_state gauge: 0 closed, 1 open,
// 2 half-open.
func breakerState(c *Client) int64 {
	c.init()
	return c.Metrics.Snapshot()["client_breaker_state"].Value
}

// recordedSleeps installs a sleep seam that records durations without
// actually sleeping.
func recordedSleeps(c *Client) *[]time.Duration {
	var sleeps []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		sleeps = append(sleeps, d)
		return nil
	}
	return &sleeps
}

// TestBackoffScheduleDeterministic: the full-jitter schedule is a pure
// function of the seed — same seed, same sleeps; different seed, different
// sleeps — and every sleep respects the doubling window cap.
func TestBackoffScheduleDeterministic(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		c := &Client{Seed: seed, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}
		c.init()
		out := make([]time.Duration, 6)
		for k := range out {
			out[k] = c.jitteredBackoff(k)
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("attempt %d: seed 42 gave %v then %v", k, a[k], b[k])
		}
		window := 10 * time.Millisecond << k
		if window > 80*time.Millisecond {
			window = 80 * time.Millisecond
		}
		if a[k] < 0 || a[k] > window {
			t.Fatalf("attempt %d: backoff %v outside [0, %v]", k, a[k], window)
		}
	}
	c := schedule(43)
	same := true
	for k := range a {
		if a[k] != c[k] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
}

// TestRetryAfterPrecedence: a server-provided Retry-After replaces the
// computed backoff entirely — the client sleeps exactly the advertised
// time, then retries and succeeds.
func TestRetryAfterPrecedence(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			writeJSON(w, http.StatusTooManyRequests, &ErrorResponse{Error: "full", Kind: "overloaded"})
			return
		}
		okHandler().ServeHTTP(w, r)
	})
	c := &Client{Transport: HandlerTransport(h), BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	sleeps := recordedSleeps(c)
	res, err := c.Route(context.Background(), []byte(`{}`))
	if err != nil || res.Status != 200 {
		t.Fatalf("Route: %v (status %d)", err, res.Status)
	}
	if res.Retries != 1 {
		t.Fatalf("retries %d, want 1", res.Retries)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] != 7*time.Second {
		t.Fatalf("sleeps %v, want exactly the advertised 7s (computed backoff would be ≤4ms)", *sleeps)
	}
}

// TestRetriesThenSucceeds: transient 500s are retried with jittered
// backoff until the server recovers.
func TestRetriesThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			statusHandler(http.StatusInternalServerError, "").ServeHTTP(w, r)
			return
		}
		okHandler().ServeHTTP(w, r)
	})
	c := &Client{Transport: HandlerTransport(h), BaseBackoff: time.Microsecond, MaxBackoff: time.Millisecond}
	recordedSleeps(c)
	res, err := c.Route(context.Background(), []byte(`{}`))
	if err != nil || res.Status != 200 || res.Retries != 2 {
		t.Fatalf("got err=%v status=%d retries=%d, want 200 after 2 retries", err, res.Status, res.Retries)
	}
}

// TestBadRequestIsFinal: 4xx answers are the server speaking clearly —
// no retry, no breaker damage.
func TestBadRequestIsFinal(t *testing.T) {
	c := &Client{Transport: HandlerTransport(statusHandler(http.StatusBadRequest, ""))}
	recordedSleeps(c)
	res, err := c.Route(context.Background(), []byte(`{"bad":true}`))
	if err != nil {
		t.Fatalf("4xx should not be an error: %v", err)
	}
	if res.Status != 400 || res.Retries != 0 || res.ErrorBody == nil {
		t.Fatalf("got status=%d retries=%d body=%v", res.Status, res.Retries, res.ErrorBody)
	}
	if got := breakerState(c); got != breakerClosed {
		t.Fatalf("breaker state %d after a 400, want closed", got)
	}
}

// TestBreakerTransitions walks the full state machine on a fake clock:
// closed → (threshold consecutive failures) → open → fast-fail →
// (cooldown) → half-open probe → success → closed; and the half-open
// failure path re-opens.
func TestBreakerTransitions(t *testing.T) {
	failing := atomic.Bool{}
	failing.Store(true)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			statusHandler(http.StatusInternalServerError, "").ServeHTTP(w, r)
			return
		}
		okHandler().ServeHTTP(w, r)
	})
	now := time.Unix(1000, 0)
	c := &Client{
		Transport:        HandlerTransport(h),
		MaxAttempts:      1, // isolate breaker behavior from retries
		BreakerThreshold: 3,
		BreakerCooldown:  10 * time.Second,
	}
	c.now = func() time.Time { return now }
	recordedSleeps(c)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if got := breakerState(c); got != breakerClosed {
			t.Fatalf("failure %d: breaker state %d, want closed", i, got)
		}
		c.Route(ctx, []byte(`{}`))
	}
	if got := breakerState(c); got != breakerOpen {
		t.Fatalf("after 3 consecutive failures breaker state is %d, want open", got)
	}
	if v := c.Metrics.Snapshot()["client_breaker_opens_total"].Value; v != 1 {
		t.Fatalf("client_breaker_opens_total %d, want 1", v)
	}

	// Open: instant rejection, no round trip.
	before := c.Metrics.Snapshot()["client_attempts_total"].Value
	if _, err := c.Route(ctx, []byte(`{}`)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker returned %v, want ErrBreakerOpen", err)
	}
	if after := c.Metrics.Snapshot()["client_attempts_total"].Value; after != before {
		t.Fatal("open breaker still performed a round trip")
	}
	if v := c.Metrics.Snapshot()["client_breaker_fastfail_total"].Value; v != 1 {
		t.Fatalf("client_breaker_fastfail_total %d, want 1", v)
	}

	// Cooldown elapses; the probe fails → re-open.
	now = now.Add(11 * time.Second)
	c.Route(ctx, []byte(`{}`))
	if got := breakerState(c); got != breakerOpen {
		t.Fatalf("failed half-open probe left breaker state %d, want open", got)
	}
	if v := c.Metrics.Snapshot()["client_breaker_opens_total"].Value; v != 2 {
		t.Fatalf("client_breaker_opens_total %d, want 2 after re-open", v)
	}

	// Cooldown again; the server has recovered; the probe closes it.
	now = now.Add(11 * time.Second)
	failing.Store(false)
	res, err := c.Route(ctx, []byte(`{}`))
	if err != nil || res.Status != 200 {
		t.Fatalf("half-open probe: %v (status %d)", err, res.Status)
	}
	if got := breakerState(c); got != breakerClosed {
		t.Fatalf("successful probe left breaker state %d, want closed", got)
	}
}

// TestDeadlineBudgetPropagation: a Retry-After far beyond the caller's
// remaining budget is refused up front — the call fails fast with the
// deadline error instead of sleeping into it.
func TestDeadlineBudgetPropagation(t *testing.T) {
	c := &Client{Transport: HandlerTransport(statusHandler(http.StatusServiceUnavailable, "30"))}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Route(ctx, []byte(`{}`))
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want a deadline-exceeded budget error", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("budget-refused call took %v — it slept into the advertised Retry-After", elapsed)
	}
}

// TestAttemptsExhausted: a persistently failing server yields a typed
// failure carrying the last status after exactly MaxAttempts round trips.
func TestAttemptsExhausted(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		statusHandler(http.StatusInternalServerError, "").ServeHTTP(w, r)
	})
	c := &Client{Transport: HandlerTransport(h), MaxAttempts: 3, BreakerThreshold: -1}
	recordedSleeps(c)
	res, err := c.Route(context.Background(), []byte(`{}`))
	if err == nil {
		t.Fatal("exhausted retries returned nil error")
	}
	if calls.Load() != 3 || res.Retries != 2 {
		t.Fatalf("calls=%d retries=%d, want 3 round trips / 2 retries", calls.Load(), res.Retries)
	}
}

// TestClientAgainstRealServer: the resilient client end-to-end against a
// live Server — success, cache hit on the second call, and a clean 400
// pass-through.
func TestClientAgainstRealServer(t *testing.T) {
	s := New(Config{Workers: 2, route: fakeRoute})
	defer shutdownOrFail(t, s)
	c := &Client{Transport: HandlerTransport(s.Handler())}

	res, err := c.Route(context.Background(), []byte(testBody))
	if err != nil || res.Status != 200 || res.Response == nil {
		t.Fatalf("first: %v (status %d)", err, res.Status)
	}
	res2, err := c.Route(context.Background(), []byte(testBody))
	if err != nil || !res2.Response.Cached {
		t.Fatalf("second: err=%v cached=%v, want cache hit", err, res2.Response != nil && res2.Response.Cached)
	}
	if res2.Response.TreeDigest != res.Response.TreeDigest {
		t.Error("cache hit tree digest differs")
	}
	bad, err := c.Route(context.Background(), []byte(`{"config":`))
	if err != nil || bad.Status != 400 || bad.ErrorBody == nil || bad.ErrorBody.Kind != "bad_request" {
		t.Fatalf("bad request: err=%v status=%d body=%+v", err, bad.Status, bad.ErrorBody)
	}
}
