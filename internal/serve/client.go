package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrBreakerOpen is returned (fast, without a network round trip) while
// the client's circuit breaker for the target host is open.
var ErrBreakerOpen = errors.New("serve: circuit breaker open")

// Client is the resilient side of the route API: retries with full-jitter
// exponential backoff that yields to the server's Retry-After hints, a
// per-host circuit breaker (closed → open → half-open), and
// context-deadline budget propagation — a retry never sleeps past the
// caller's deadline, and every attempt carries the caller's context so the
// server stops working for a caller that is gone.
//
// Route requests are idempotent by construction (the server keys them by
// canonical digest and re-executions are bit-identical), which is what
// makes retries safe.
//
// The zero value plus a Base (or Transport) is usable; all policy knobs
// have production defaults. A Client is safe for concurrent use.
type Client struct {
	// Base is the target base URL, e.g. "http://localhost:8080". May stay
	// empty when Transport is an in-process HandlerTransport.
	Base string
	// Transport performs the round trips (nil = http.DefaultTransport).
	// Use HandlerTransport to drive an in-process Server.
	Transport http.RoundTripper

	// MaxAttempts bounds total tries per Route call, first included
	// (0 = 4; 1 disables retries).
	MaxAttempts int
	// BaseBackoff is the cap of the first retry's jittered sleep; the cap
	// doubles each retry up to MaxBackoff (0 = 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps any single backoff sleep (0 = 2s).
	MaxBackoff time.Duration
	// Seed seeds the jitter sequence, making a client's backoff schedule
	// deterministic and testable. The zero value is a fixed default seed;
	// give fleet clients distinct seeds to decorrelate their retries.
	Seed uint64

	// BreakerThreshold is the consecutive-failure count (transport errors
	// and 5xx answers) that opens the breaker (0 = 5; negative disables
	// the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects instantly before
	// letting one half-open probe through (0 = 5s).
	BreakerCooldown time.Duration

	// Metrics receives the client_* instruments (nil = a fresh private
	// registry).
	Metrics *obs.Registry

	once    sync.Once
	rngMu   sync.Mutex
	rng     *rand.Rand
	breaker *breaker
	inst    *clientInstruments

	// Test seams; nil = real time.
	sleep func(ctx context.Context, d time.Duration) error
	now   func() time.Time
}

// clientInstruments is the client_* instrument set.
type clientInstruments struct {
	requests, attempts, retries *obs.Counter
	fastFails, breakerOpens     *obs.Counter
	breakerState                *obs.Gauge
}

// ClientResult is the final outcome of one Route call.
type ClientResult struct {
	// Status is the final HTTP status (0 when no attempt got a response).
	Status int
	// Response is the decoded body of a 200.
	Response *RouteResponse
	// ErrorBody is the decoded body of a final non-2xx answer, when the
	// server sent one.
	ErrorBody *ErrorResponse
	// Retries counts backoff-then-retry cycles (sequential attempts − 1).
	Retries int
	// RetryAfter is the Retry-After duration of the final answer, when the
	// server sent one (429/503). A proxying caller — the cluster front
	// tier — forwards it verbatim so the end client's backoff keys off the
	// shard's own queue estimate, not a generic guess.
	RetryAfter time.Duration
}

func (c *Client) init() {
	c.once.Do(func() {
		if c.MaxAttempts <= 0 {
			c.MaxAttempts = 4
		}
		if c.BaseBackoff <= 0 {
			c.BaseBackoff = 50 * time.Millisecond
		}
		if c.MaxBackoff <= 0 {
			c.MaxBackoff = 2 * time.Second
		}
		if c.BreakerThreshold == 0 {
			c.BreakerThreshold = 5
		}
		if c.BreakerCooldown <= 0 {
			c.BreakerCooldown = 5 * time.Second
		}
		if c.Transport == nil {
			c.Transport = http.DefaultTransport
		}
		if c.Metrics == nil {
			c.Metrics = obs.NewRegistry()
		}
		if c.sleep == nil {
			c.sleep = sleepCtx
		}
		if c.now == nil {
			c.now = time.Now
		}
		c.rng = rand.New(rand.NewSource(int64(c.Seed)))
		c.inst = &clientInstruments{
			requests:     c.Metrics.Counter("client_requests_total", "Route calls issued"),
			attempts:     c.Metrics.Counter("client_attempts_total", "HTTP round trips performed"),
			retries:      c.Metrics.Counter("client_retries_total", "backoff-then-retry cycles"),
			fastFails:    c.Metrics.Counter("client_breaker_fastfail_total", "calls rejected instantly by an open breaker"),
			breakerOpens: c.Metrics.Counter("client_breaker_opens_total", "breaker transitions into open"),
			breakerState: c.Metrics.Gauge("client_breaker_state", "0 closed, 1 open, 2 half-open"),
		}
		c.breaker = newBreaker(c.BreakerThreshold, c.BreakerCooldown, c.inst)
	})
}

// Route sends one route request body through the resilience pipeline and
// returns the final outcome. Transport-level failures and 429/5xx answers
// are retried (Retry-After, when present, overrides the computed backoff);
// 4xx answers and 200s are final. The caller's context bounds the whole
// call: its deadline is the retry budget, and ErrBreakerOpen short-circuits
// everything while the host is considered down.
func (c *Client) Route(ctx context.Context, body []byte) (*ClientResult, error) {
	c.init()
	c.inst.requests.Inc()
	out := &ClientResult{}
	var lastErr error
	for attempt := 0; attempt < c.MaxAttempts; attempt++ {
		if attempt > 0 {
			out.Retries++
			c.inst.retries.Inc()
		}
		if !c.breaker.allow(c.now()) {
			c.inst.fastFails.Inc()
			if lastErr != nil {
				return out, fmt.Errorf("%w (last failure: %w)", ErrBreakerOpen, lastErr)
			}
			return out, ErrBreakerOpen
		}
		resp, err := c.roundTrip(ctx, body)
		if err != nil {
			c.breaker.record(false, c.now())
			lastErr = err
			if ctx.Err() != nil {
				return out, fmt.Errorf("serve client: budget exhausted: %w", ctx.Err())
			}
			if attempt+1 >= c.MaxAttempts {
				break // out of attempts: skip the final, unusable backoff
			}
			if werr := c.backoff(ctx, attempt, 0); werr != nil {
				return out, fmt.Errorf("serve client: budget exhausted during backoff: %w (last failure: %w)", werr, err)
			}
			continue
		}
		out.Status = resp.status
		out.RetryAfter = resp.retryAfter
		c.breaker.record(resp.status < 500, c.now())
		switch {
		case resp.status == http.StatusOK:
			out.Response = resp.route
			return out, nil
		case resp.status == http.StatusTooManyRequests || resp.status >= 500:
			out.ErrorBody = resp.errBody
			lastErr = fmt.Errorf("serve client: status %d", resp.status)
			if attempt+1 >= c.MaxAttempts {
				break // out of attempts: don't sleep a backoff nobody will use
			}
			if werr := c.backoff(ctx, attempt, resp.retryAfter); werr != nil {
				return out, fmt.Errorf("serve client: budget exhausted during backoff: %w (last status %d)", werr, resp.status)
			}
			continue
		default:
			// 4xx: the server answered deliberately — final.
			out.ErrorBody = resp.errBody
			return out, nil
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("serve client: status %d", out.Status)
	}
	return out, fmt.Errorf("serve client: %d attempts exhausted: %w", c.MaxAttempts, lastErr)
}

// attemptResponse is one parsed round-trip outcome.
type attemptResponse struct {
	status     int
	route      *RouteResponse
	errBody    *ErrorResponse
	retryAfter time.Duration
}

// roundTrip performs one HTTP round trip and parses the answer.
func (c *Client) roundTrip(ctx context.Context, body []byte) (*attemptResponse, error) {
	c.inst.attempts.Inc()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/route", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("serve client: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := c.Transport.RoundTrip(req)
	if err != nil {
		return nil, fmt.Errorf("serve client: round trip: %w", err)
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(httpResp.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("serve client: read response: %w", err)
	}
	out := &attemptResponse{status: httpResp.StatusCode}
	if ra := httpResp.Header.Get("Retry-After"); ra != "" {
		if sec, err := strconv.Atoi(ra); err == nil && sec >= 0 {
			out.retryAfter = time.Duration(sec) * time.Second
		}
	}
	switch {
	case httpResp.StatusCode == http.StatusOK:
		var rr RouteResponse
		if err := json.Unmarshal(data, &rr); err != nil {
			return nil, fmt.Errorf("serve client: malformed 200 body: %w", err)
		}
		out.route = &rr
	case len(data) > 0:
		var er ErrorResponse
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			out.errBody = &er
		}
	}
	return out, nil
}

// backoff sleeps before retry number attempt+1. A server-provided
// Retry-After takes precedence over the computed backoff — the server
// knows its queue better than our exponential guess — and either sleep is
// refused up front when it would outlive the caller's deadline, so budget
// is spent routing, not waiting for a retry that could never be sent.
func (c *Client) backoff(ctx context.Context, attempt int, retryAfter time.Duration) error {
	d := retryAfter
	if d <= 0 {
		d = c.jitteredBackoff(attempt)
	}
	if deadline, ok := ctx.Deadline(); ok && c.now().Add(d).After(deadline) {
		return context.DeadlineExceeded
	}
	return c.sleep(ctx, d)
}

// jitteredBackoff computes the attempt'th full-jitter backoff: uniform in
// [0, min(MaxBackoff, BaseBackoff·2^attempt)). Full jitter spreads a
// thundering herd across the whole window instead of synchronizing it at
// the window's edge.
func (c *Client) jitteredBackoff(attempt int) time.Duration {
	window := c.BaseBackoff
	for i := 0; i < attempt && window < c.MaxBackoff; i++ {
		window *= 2
	}
	if window > c.MaxBackoff {
		window = c.MaxBackoff
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return time.Duration(c.rng.Int63n(int64(window) + 1))
}

// breakerState values for the client_breaker_state gauge.
const (
	breakerClosed int64 = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a consecutive-failure circuit breaker: closed until
// threshold consecutive failures, open (instant rejections) for the
// cooldown, then half-open letting exactly one probe through — success
// closes it, failure re-opens it.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	inst      *clientInstruments

	state    int64
	fails    int
	openedAt time.Time
	probing  bool
}

func newBreaker(threshold int, cooldown time.Duration, inst *clientInstruments) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, inst: inst}
}

// allow reports whether a round trip may proceed now.
func (b *breaker) allow(now time.Time) bool {
	if b.threshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.setState(breakerHalfOpen)
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record feeds one round-trip outcome into the state machine.
func (b *breaker) record(ok bool, now time.Time) {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if ok {
		b.fails = 0
		if b.state != breakerClosed {
			b.setState(breakerClosed)
		}
		return
	}
	b.fails++
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.fails >= b.threshold) {
		b.setState(breakerOpen)
		b.openedAt = now
		b.fails = 0
		b.inst.breakerOpens.Inc()
	}
}

// setState updates the state and its gauge; callers hold b.mu.
func (b *breaker) setState(s int64) {
	b.state = s
	b.inst.breakerState.Set(s)
}

// HandlerTransport adapts an in-process http.Handler into the client's
// RoundTripper, so the resilient client can drive a Server (or a cluster
// front tier) without sockets — deterministic and race-detector friendly.
func HandlerTransport(h http.Handler) http.RoundTripper {
	return handlerTransport{h: h}
}

type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}
