// distributed explores §6 of the paper: splitting the die into k partitions
// with one gate controller each shrinks the enable star wiring by ≈ √k.
// The example routes the same design under k = 1..16 controllers — one
// worker goroutine per k, each with its own metrics registry — compares the
// measured star wirelength against the paper's closed-form G·D/(4·√k)
// model, and merges the per-worker registries into one fleet-wide snapshot,
// the same aggregation a distributed routing farm would perform.
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"

	gatedclock "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

var ks = []int{1, 2, 4, 8, 16}

type sweepResult struct {
	k        int
	report   gatedclock.Report
	stats    gatedclock.Stats
	snapshot gatedclock.MetricsSnapshot
}

func main() {
	b, err := gatedclock.GenerateBenchmark(gatedclock.BenchmarkConfig{
		Name:      "distctl",
		NumSinks:  300,
		Seed:      31,
		NumInstr:  20,
		StreamLen: 4000,
	})
	if err != nil {
		log.Fatal(err)
	}
	d, err := gatedclock.NewDesign(b)
	if err != nil {
		log.Fatal(err)
	}

	// Fan out: one worker per controller count, each routing with a private
	// metrics registry so the workers never contend on instrument atomics.
	results := make([]sweepResult, len(ks))
	errs := make([]error, len(ks))
	var wg sync.WaitGroup
	for i, k := range ks {
		wg.Add(1)
		go func(i, k int) {
			defer wg.Done()
			c, err := gatedclock.DistributedController(b, k)
			if err != nil {
				errs[i] = err
				return
			}
			reg := gatedclock.NewMetrics()
			opts := gatedclock.GatedReducedOptions()
			opts.Controller = c
			opts.Metrics = reg
			res, err := d.Route(opts)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = sweepResult{k: k, report: res.Report, stats: res.Stats,
				snapshot: reg.Snapshot()}
		}(i, k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("  k   star-WL(λ)   analytic(λ)   ctrl-SC   total-SC   star-area(λ²)")
	base := results[0].report.StarWirelength
	for _, res := range results {
		r := res.report
		analytic := gatedclock.AnalyticStarLength(b.Die.W(), r.NumGates, res.k)
		fmt.Printf("%3d   %10.0f   %11.0f   %7.0f   %8.0f   %13.0f   (%.2fx shorter)\n",
			res.k, r.StarWirelength, analytic, r.CtrlSC, r.TotalSC, r.StarWireArea,
			base/r.StarWirelength)
	}
	fmt.Println("\nstar wiring shrinks roughly with √k, as §6 of the paper predicts")

	// Merge the per-worker registries: counters and histogram buckets sum,
	// gauges keep the fleet-wide maximum.
	fleet := results[0].snapshot
	for _, res := range results[1:] {
		fleet.Merge(res.snapshot)
	}
	fmt.Printf("\naggregated construction metrics across %d workers:\n", len(ks))
	names := make([]string, 0, len(fleet))
	for name := range fleet {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		inst := fleet[name]
		if inst.Kind == obs.KindHistogram {
			fmt.Printf("  %-32s count=%d sum=%.0f\n", name, inst.Count, inst.Sum)
			continue
		}
		fmt.Printf("  %-32s %d\n", name, inst.Value)
	}
	var wantMerges int64
	for _, res := range results {
		wantMerges += int64(res.stats.Merges)
	}
	if got := fleet[core.MetricMerges].Value; got != wantMerges {
		log.Fatalf("aggregation lost work: %d merges in the fleet snapshot, workers did %d",
			got, wantMerges)
	}
}
