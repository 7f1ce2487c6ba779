// distributed explores §6 of the paper: splitting the die into k partitions
// with one gate controller each shrinks the enable star wiring by ≈ √k.
// The example routes the same design under k = 1..16 controllers — one
// worker goroutine per k, all reporting into one shared metrics registry —
// and compares the measured star wirelength against the paper's
// closed-form G·D/(4·√k) model.
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
	k      int
	report gatedclock.Report
	stats  gatedclock.Stats
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

	// Fan out: one worker per controller count. A registry is safe for
	// concurrent use, so every route counts into the same one.
	reg := gatedclock.NewMetrics()
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
			opts := gatedclock.GatedReducedOptions()
			opts.Controller = c
			opts.Metrics = reg
			res, err := d.Route(opts)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = sweepResult{k: k, report: res.Report, stats: res.Stats}
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

	snap := reg.Snapshot()
	fmt.Printf("\nconstruction metrics of all %d routes, from the one shared registry:\n", len(ks))
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		inst := snap[name]
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
	if got := snap[core.MetricMerges].Value; got != wantMerges {
		log.Fatalf("the shared registry lost work: %d merges counted, workers did %d",
			got, wantMerges)
	}
}
