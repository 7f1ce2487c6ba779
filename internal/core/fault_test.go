package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/tech"
	"repro/internal/verify"
)

// faultPlans returns, for a benchmark with n sinks, one injection plan per
// fault mode, each placed so the corruption is exercised deterministically:
// heap faults within the init scan's single-version window, memo faults at
// a seed-derived cached read, activity faults on the final merge (where
// only the post-construction verifier can see them), panics mid-loop.
func faultPlans(n int, seed uint64) []faultinject.Plan {
	return []faultinject.Plan{
		{Mode: faultinject.CorruptMemo, Nth: faultinject.NthFromSeed(seed, 200)},
		{Mode: faultinject.CorruptHeap, Nth: faultinject.NthFromSeed(seed, n-1)},
		{Mode: faultinject.CorruptActivity, Nth: n - 2},
		{Mode: faultinject.PanicMergeLoop, Nth: faultinject.NthFromSeed(seed, n/2)},
	}
}

// TestFaultInjectionDetected: every injected corruption must surface as an
// error wrapping verify.ErrInvariant that names the corruption — never as
// a silently wrong tree and never as a panic escaping Route — on r1, r2
// and a 96-sink instance.
func TestFaultInjectionDetected(t *testing.T) {
	want := map[faultinject.Mode]string{
		faultinject.CorruptMemo:     "holds impossible cost",
		faultinject.CorruptHeap:     "heap entry for node",
		faultinject.CorruptActivity: "P(EN) = NaN",
		faultinject.PanicMergeLoop:  "fast-path panic",
	}
	cases := []struct {
		name string
		in   func(t *testing.T) *Instance
	}{
		{"r1", func(t *testing.T) *Instance { return goldenInstance(t, "r1") }},
		{"r2", func(t *testing.T) *Instance { return goldenInstance(t, "r2") }},
		{"n96", func(t *testing.T) *Instance { return makeInstance(t, 96, 41) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.in(t)
			n := len(in.SinkLocs)
			for _, plan := range faultPlans(n, 7*uint64(n)) {
				fi := faultinject.New(plan)
				opts := Options{Tech: tech.Default(), Method: MinSwitchedCap, Drivers: GatedTree,
					Verify: true, FaultInject: fi}
				tree, _, err := Route(in, opts)
				switch {
				case !fi.Fired():
					t.Errorf("%v: fault never fired", plan.Mode)
				case tree != nil:
					t.Errorf("%v: non-nil tree returned (err %v)", plan.Mode, err)
				case !errors.Is(err, verify.ErrInvariant):
					t.Errorf("%v: error %v does not wrap verify.ErrInvariant", plan.Mode, err)
				case !strings.Contains(err.Error(), want[plan.Mode]):
					t.Errorf("%v: error %q does not say %q", plan.Mode, err, want[plan.Mode])
				}
			}
		})
	}
}

// TestRouteContextPreCanceled: an already-canceled context fails promptly
// with ErrCanceled and no partial result.
func TestRouteContextPreCanceled(t *testing.T) {
	in := makeInstance(t, 80, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Tech: tech.Default(), Method: MinSwitchedCap, Drivers: GatedTree}
	tree, _, err := RouteContext(ctx, in, opts)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("context cause lost from chain: %v", err)
	}
	if tree != nil {
		t.Error("partial tree returned after cancellation")
	}
}

// TestRouteContextDeadline: a tight deadline interrupts a large
// construction mid-flight, promptly.
func TestRouteContextDeadline(t *testing.T) {
	in := makeInstance(t, 600, 13)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	opts := Options{Tech: tech.Default(), Method: MinSwitchedCap, Drivers: GatedTree}
	start := time.Now()
	tree, _, err := RouteContext(ctx, in, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if tree != nil {
		t.Error("partial tree returned after deadline")
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v — checkpoints not reached", elapsed)
	}
}

// countdownCtx expires after its Err method has been consulted n times —
// a deterministic stand-in for a mid-construction deadline that cannot
// race against a fast method finishing early.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left <= 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestCancellationCheckpointsAllMethods proves every topology method's
// construction loop actually polls the context: a context that expires at
// the 10th checkpoint must abort each of them, however fast the method is.
func TestCancellationCheckpointsAllMethods(t *testing.T) {
	in := makeInstance(t, 96, 13)
	for _, method := range []Method{MinSwitchedCap, NearestNeighbor, MeansAndMedians,
		GreedyDistance, ActivityDriven, MinClockCapOnly} {
		ctx := &countdownCtx{Context: context.Background(), left: 10}
		// Workers: 1 keeps the checkpoint count deterministic.
		opts := Options{Tech: tech.Default(), Method: method, Drivers: GatedTree, Workers: 1}
		tree, _, err := RouteContext(ctx, in, opts)
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v: got %v, want ErrCanceled wrapping DeadlineExceeded", method, err)
		}
		if tree != nil {
			t.Errorf("%v: partial tree returned", method)
		}
	}
}
