package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// ErrInjected marks a failure manufactured by the chaos injector rather
// than the routing pipeline. The HTTP layer answers 500 with kind
// "injected", so clients (and the node drill's availability accounting)
// can tell manufactured faults from real ones.
var ErrInjected = errors.New("serve: injected fault")

// Chaos configures service-level fault injection: deterministic seeded
// schedules (see faultinject.Schedule) of worker panics, injected 5xx
// errors, added pre-route latency, and slowed response writes. Each
// period is "one fault per that many eligible events" (0 disables the
// fault class), so a chaos run's injected-fault counts are exact and
// assertable, not merely probable. The zero value injects nothing.
type Chaos struct {
	// Seed derives every schedule's firing phases; two runs with the same
	// seed, periods and request sequence inject identical fault patterns.
	Seed uint64
	// PanicPeriod injects one worker panic per this many route executions.
	PanicPeriod int
	// ErrorPeriod injects one ErrInjected failure per this many route
	// executions.
	ErrorPeriod int
	// LatencyPeriod adds Latency before one route execution per this many;
	// the sleep is context-aware, so deadlines and drains still win.
	LatencyPeriod int
	Latency       time.Duration
	// SlowPeriod delays one HTTP response write per this many responses
	// by Slow — the client-visible half of a latency storm, distinct from
	// LatencyPeriod which inflates the execution every waiter shares.
	SlowPeriod int
	Slow       time.Duration
}

// enabled reports whether any fault class is armed.
func (c Chaos) enabled() bool {
	return c.PanicPeriod > 0 || c.ErrorPeriod > 0 || c.LatencyPeriod > 0 || c.SlowPeriod > 0
}

// chaosInjector is the armed form: one deterministic schedule per fault
// class plus the serve_injected_* accounting.
type chaosInjector struct {
	cfg    Chaos
	panics *faultinject.Schedule
	errs   *faultinject.Schedule
	lat    *faultinject.Schedule
	slow   *faultinject.Schedule

	injPanics, injErrors, injLatency, injSlow *obs.Counter
}

// newChaosInjector arms a Chaos config; an empty config returns nil (the
// production no-op, one pointer test per hook).
func newChaosInjector(c Chaos, r *obs.Registry) *chaosInjector {
	if !c.enabled() {
		return nil
	}
	// Distinct per-class seeds so the classes don't fire in lockstep when
	// given equal periods.
	return &chaosInjector{
		cfg:        c,
		panics:     faultinject.NewSchedule(c.Seed^0xc4a05, c.PanicPeriod),
		errs:       faultinject.NewSchedule(c.Seed^0xe44, c.ErrorPeriod),
		lat:        faultinject.NewSchedule(c.Seed^0x1a7, c.LatencyPeriod),
		slow:       faultinject.NewSchedule(c.Seed^0x510, c.SlowPeriod),
		injPanics:  r.Counter("serve_injected_panics_total", "chaos: worker panics injected"),
		injErrors:  r.Counter("serve_injected_errors_total", "chaos: 5xx errors injected"),
		injLatency: r.Counter("serve_injected_latency_total", "chaos: pre-route latency injections"),
		injSlow:    r.Counter("serve_injected_slow_total", "chaos: slowed response writes"),
	}
}

// beforeRoute runs the execution-side fault classes, in severity order:
// latency first (it composes with the others), then an injected error,
// then a panic. Returning a non-nil error aborts the execution.
func (ci *chaosInjector) beforeRoute(ctx context.Context) error {
	if ci == nil {
		return nil
	}
	if ci.lat.Next() {
		ci.injLatency.Inc()
		if err := sleepCtx(ctx, ci.cfg.Latency); err != nil {
			return err
		}
	}
	if ci.errs.Next() {
		ci.injErrors.Inc()
		return fmt.Errorf("%w: scheduled 5xx", ErrInjected)
	}
	if ci.panics.Next() {
		ci.injPanics.Inc()
		panic("chaos: injected worker panic")
	}
	return nil
}

// beforeWrite runs the response-side fault class: a context-aware delay
// of the HTTP write.
func (ci *chaosInjector) beforeWrite(ctx context.Context) {
	if ci == nil {
		return
	}
	if ci.slow.Next() {
		ci.injSlow.Inc()
		sleepCtx(ctx, ci.cfg.Slow)
	}
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ParseChaos parses the gcrd -chaos flag syntax: comma-separated
// key=value pairs, e.g.
//
//	seed=42,panic=200,error=100,latency=50:10ms,slow=100:5ms
//
// panic/error take a period (one fault per N events); latency/slow take
// period:duration. Unknown keys and malformed values are errors.
func ParseChaos(spec string) (Chaos, error) {
	var c Chaos
	if strings.TrimSpace(spec) == "" {
		return c, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Chaos{}, fmt.Errorf("chaos spec %q: field %q is not key=value", spec, field)
		}
		period := func(v string) (int, error) {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return 0, fmt.Errorf("chaos spec: %s=%q is not a positive period", key, v)
			}
			return n, nil
		}
		periodDur := func(v string) (int, time.Duration, error) {
			ps, ds, ok := strings.Cut(v, ":")
			if !ok {
				return 0, 0, fmt.Errorf("chaos spec: %s=%q wants period:duration (e.g. 50:10ms)", key, v)
			}
			n, err := period(ps)
			if err != nil {
				return 0, 0, err
			}
			d, err := time.ParseDuration(ds)
			if err != nil || d <= 0 {
				return 0, 0, fmt.Errorf("chaos spec: %s duration %q: want a positive duration", key, ds)
			}
			return n, d, nil
		}
		var err error
		switch key {
		case "seed":
			c.Seed, err = strconv.ParseUint(val, 10, 64)
			if err != nil {
				err = fmt.Errorf("chaos spec: seed %q is not a uint64", val)
			}
		case "panic":
			c.PanicPeriod, err = period(val)
		case "error":
			c.ErrorPeriod, err = period(val)
		case "latency":
			c.LatencyPeriod, c.Latency, err = periodDur(val)
		case "slow":
			c.SlowPeriod, c.Slow, err = periodDur(val)
		default:
			err = fmt.Errorf("chaos spec: unknown key %q (want seed|panic|error|latency|slow)", key)
		}
		if err != nil {
			return Chaos{}, err
		}
	}
	return c, nil
}
