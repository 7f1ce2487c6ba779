package gatedclock_test

import (
	"context"
	"errors"
	"math"
	"testing"

	gatedclock "repro"
	"repro/internal/faultinject"
	"repro/internal/stream"
)

// TestInvalidBenchmarkErrors: every malformed benchmark must surface as an
// error wrapping ErrInvalidBenchmark, matchable with errors.Is.
func TestInvalidBenchmarkErrors(t *testing.T) {
	good := func(t *testing.T) *gatedclock.Benchmark {
		t.Helper()
		b, err := gatedclock.GenerateBenchmark(gatedclock.BenchmarkConfig{
			Name: "bad", NumSinks: 8, Seed: 3, NumInstr: 4, StreamLen: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name   string
		mutate func(b *gatedclock.Benchmark)
	}{
		{"negative-load", func(b *gatedclock.Benchmark) { b.SinkCaps[0] = -1 }},
		{"nan-location", func(b *gatedclock.Benchmark) { b.SinkLocs[2].X = math.NaN() }},
		{"sink-outside-die", func(b *gatedclock.Benchmark) { b.SinkLocs[1].X = b.Die.X1 + 100 }},
		{"duplicate-sinks", func(b *gatedclock.Benchmark) { b.SinkLocs[3] = b.SinkLocs[4] }},
		{"missing-isa", func(b *gatedclock.Benchmark) { b.ISA = nil }},
		{"cap-count-mismatch", func(b *gatedclock.Benchmark) { b.SinkCaps = b.SinkCaps[:4] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := good(t)
			tc.mutate(b)
			_, err := gatedclock.NewDesign(b)
			if err == nil {
				t.Fatal("malformed benchmark accepted")
			}
			if !errors.Is(err, gatedclock.ErrInvalidBenchmark) {
				t.Fatalf("%v does not wrap ErrInvalidBenchmark", err)
			}
		})
	}
}

// TestInvalidStreamErrors: a corrupt instruction stream is reported through
// the ErrInvalidStream sentinel (which benchmark validation preserves in
// its chain).
func TestInvalidStreamErrors(t *testing.T) {
	b, err := gatedclock.GenerateBenchmark(gatedclock.BenchmarkConfig{
		Name: "bad", NumSinks: 8, Seed: 3, NumInstr: 4, StreamLen: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Stream[10] = 99 // instruction index outside the ISA
	_, err = gatedclock.NewDesign(b)
	if err == nil {
		t.Fatal("corrupt stream accepted")
	}
	if !errors.Is(err, gatedclock.ErrInvalidStream) {
		t.Fatalf("%v does not wrap ErrInvalidStream", err)
	}
	// An empty stream likewise.
	b.Stream = stream.Stream{}
	if _, err := gatedclock.NewDesign(b); !errors.Is(err, gatedclock.ErrInvalidStream) {
		t.Fatalf("%v does not wrap ErrInvalidStream", err)
	}
}

// TestInvalidOptionsErrors: option validation failures surface through the
// same public sentinel as benchmark ones — the caller handed us an invalid
// routing instance either way.
func TestInvalidOptionsErrors(t *testing.T) {
	d := smallDesign(t)
	opts := gatedclock.GatedReducedOptions()
	opts.SkewBoundPs = math.Inf(1)
	_, err := d.Route(opts)
	if !errors.Is(err, gatedclock.ErrInvalidBenchmark) {
		t.Fatalf("%v does not wrap ErrInvalidBenchmark", err)
	}
}

// TestRouteContextCanceled: an expired context aborts routing with
// ErrCanceled, keeps the context's own cause in the chain, and never
// returns a partial Result.
func TestRouteContextCanceled(t *testing.T) {
	d := smallDesign(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := d.RouteContext(ctx, gatedclock.GatedReducedOptions())
	if !errors.Is(err, gatedclock.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("context cause lost from chain: %v", err)
	}
	if res != nil {
		t.Error("partial Result returned after cancellation")
	}
}

// TestRouteVerified: a clean route under Options.Verify runs both the
// structural checker and the power-report cross-check and succeeds.
func TestRouteVerified(t *testing.T) {
	d := smallDesign(t)
	for _, opts := range []gatedclock.Options{
		gatedclock.BareOptions(),
		gatedclock.BufferedOptions(),
		gatedclock.GatedOptions(),
		gatedclock.GatedReducedOptions(),
	} {
		opts.Verify = true
		if _, err := d.Route(opts); err != nil {
			t.Fatalf("verified route failed: %v", err)
		}
	}
}

// TestRouteFaultTyped: a panic injected into the fast path's merge loop
// fails the public route with an error wrapping ErrInvariant and no
// Result.
func TestRouteFaultTyped(t *testing.T) {
	d := smallDesign(t)
	opts := gatedclock.GatedReducedOptions()
	opts.Verify = true
	fi := faultinject.New(faultinject.Plan{
		Mode: faultinject.PanicMergeLoop,
		Nth:  faultinject.NthFromSeed(1, d.Bench.NumSinks()/2),
	})
	opts.FaultInject = fi
	res, err := d.Route(opts)
	if !fi.Fired() {
		t.Fatal("fault never fired")
	}
	if !errors.Is(err, gatedclock.ErrInvariant) {
		t.Fatalf("got %v, want an error wrapping ErrInvariant", err)
	}
	if res != nil {
		t.Error("Result returned alongside the invariant error")
	}
}
