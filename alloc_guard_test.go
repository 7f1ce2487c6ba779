// Allocation-regression guard for the spatially indexed greedy. The index
// made routing near-linear in time; the arena and scratch pools behind it
// pin it near-linear in memory too. Ceilings sit ~50% above the measured
// steady state so ordinary churn passes, while an accidental per-candidate,
// per-region or per-merge allocation — which multiplies by the tens of
// thousands of pair evaluations — blows through them immediately.
package gatedclock_test

import (
	"runtime"
	"testing"

	gatedclock "repro"
)

func TestRouteAllocationCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("routes N=1024 and N=4096 several times")
	}
	cases := []struct {
		sinks      int
		allocsCeil float64 // allocations per Route
		bytesCeil  float64 // heap bytes per Route
	}{
		// Measured steady state: 591 allocs / 1.84 MB at N=1024 and
		// 1,669 allocs / 7.15 MB at N=4096 (the sinks' instruction sets
		// live in the word arena, not one heap slice each).
		{sinks: 1024, allocsCeil: 900, bytesCeil: 2.8e6},
		{sinks: 4096, allocsCeil: 2500, bytesCeil: 10.8e6},
	}
	for i := range cases {
		c := &cases[i]
		bm, err := gatedclock.GenerateBenchmark(gatedclock.BenchmarkConfig{
			Name: "allocguard", NumSinks: c.sinks, Seed: 1, StreamLen: 2000,
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := gatedclock.NewDesign(bm)
		if err != nil {
			t.Fatal(err)
		}
		// Workers: 1 keeps the count deterministic — goroutine scheduling in
		// the parallel scan would otherwise jitter per-run allocations.
		opts := gatedclock.GatedReducedOptions()
		opts.Workers = 1
		if _, err := d.Route(opts); err != nil {
			t.Fatal(err)
		}

		var routeErr error
		var before, after runtime.MemStats
		const runs = 3
		runtime.GC()
		runtime.ReadMemStats(&before)
		avg := testing.AllocsPerRun(runs, func() {
			if _, err := d.Route(opts); err != nil {
				routeErr = err
			}
		})
		runtime.ReadMemStats(&after)
		if routeErr != nil {
			t.Fatal(routeErr)
		}
		// AllocsPerRun executes runs+1 route calls (one warm-up).
		bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
		t.Logf("N=%d: %.0f allocs/route, %.0f bytes/route", c.sinks, avg, bytesPer)
		if avg > c.allocsCeil {
			t.Errorf("Route(N=%d) averaged %.0f allocs, ceiling %.0f", c.sinks, avg, c.allocsCeil)
		}
		if bytesPer > c.bytesCeil {
			t.Errorf("Route(N=%d) averaged %.0f heap bytes, ceiling %.0f", c.sinks, bytesPer, c.bytesCeil)
		}
	}
}
