// Benchmark harness: one testing.B benchmark per table/figure of the paper
// (regenerating its data end to end), plus micro-benchmarks for the hot
// kernels and a construction-scaling series for the O(B + K²N²) claim.
//
// Run everything with
//
//	go test -bench=. -benchmem
package gatedclock_test

import (
	"fmt"
	"io"
	"math/rand/v2"
	"testing"

	gatedclock "repro"
	"repro/internal/activity"
	"repro/internal/dme"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/stream"
	"repro/internal/tech"
)

// --- Paper tables and figures ---

func BenchmarkTables123WorkedExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ex, err := experiments.RunWorkedExample()
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintWorkedExample(io.Discard, ex)
	}
}

func BenchmarkTable4Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable4([]string{"r1", "r2"})
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintTable4(io.Discard, rows)
	}
}

// Figure 3: one benchmark instance per sub-benchmark so individual rows can
// be regenerated (r4/r5 take seconds per iteration; -benchtime=1x is a
// sensible choice for those).
func BenchmarkFig3(b *testing.B) {
	for _, name := range gatedclock.StandardBenchmarkNames() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RunFig3([]string{name})
				if err != nil {
					b.Fatal(err)
				}
				experiments.PrintFig3(io.Discard, rows)
			}
		})
	}
}

func BenchmarkFig4ActivitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig4("r1", []float64{0.1, 0.4, 0.8})
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintFig4(io.Discard, "r1", rows)
	}
}

func BenchmarkFig5ReductionSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig5("r1", []float64{0, 0.2, 0.4, 1})
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintFig5(io.Discard, "r1", rows)
	}
}

func BenchmarkFig6Distributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig6("r1", []int{1, 4, 16})
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintFig6(io.Discard, "r1", rows)
	}
}

// --- Construction scaling (the §4.2 complexity claim) ---

func BenchmarkConstructScaling(b *testing.B) {
	for _, tc := range []struct {
		name  string
		sinks int
	}{
		{"N=128", 128}, {"N=256", 256}, {"N=512", 512}, {"N=1024", 1024},
		{"N=4096", 4096}, {"N=16384", 16384},
	} {
		b.Run(tc.name, func(b *testing.B) {
			// Synthesize inside the sub-benchmark (outside the timer) so a
			// filtered run of the small sizes never pays for the large ones.
			bm, err := gatedclock.GenerateBenchmark(gatedclock.BenchmarkConfig{
				Name: tc.name, NumSinks: tc.sinks, Seed: 1, StreamLen: 2000,
			})
			if err != nil {
				b.Fatal(err)
			}
			d, err := gatedclock.NewDesign(bm)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var stats gatedclock.Stats
			for i := 0; i < b.N; i++ {
				res, err := d.Route(gatedclock.GatedReducedOptions())
				if err != nil {
					b.Fatal(err)
				}
				stats = res.Stats
			}
			reportRouterStats(b, stats)
		})
	}
}

// BenchmarkConstructMulticore is the Workers dimension of the scaling
// series: the same N=16384 instance routed with 1, 2, 4 and 8 search
// workers. Only the initial best-partner scan fans out; the lazy rescans,
// the fold-in and the merge loop stay serial. Trees are
// bit-identical across the row (the digest tests pin that); only the wall
// clock may move — read the rows together with the host's core count.
func BenchmarkConstructMulticore(b *testing.B) {
	bm, err := gatedclock.GenerateBenchmark(gatedclock.BenchmarkConfig{
		Name: "mc", NumSinks: 16384, Seed: 1, StreamLen: 2000,
	})
	if err != nil {
		b.Fatal(err)
	}
	d, err := gatedclock.NewDesign(bm)
	if err != nil {
		b.Fatal(err)
	}
	for _, wk := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", wk), func(b *testing.B) {
			opts := gatedclock.GatedReducedOptions()
			opts.Workers = wk
			var stats gatedclock.Stats
			for i := 0; i < b.N; i++ {
				res, err := d.Route(opts)
				if err != nil {
					b.Fatal(err)
				}
				stats = res.Stats
			}
			reportRouterStats(b, stats)
		})
	}
}

// reportRouterStats surfaces the fast-path counters alongside ns/op so
// regressions in pruning or caching are visible in benchmark diffs.
func reportRouterStats(b *testing.B, s gatedclock.Stats) {
	b.ReportMetric(float64(s.PairEvals), "evals/op")
	b.ReportMetric(float64(s.PairEvalsSkipped), "skipped/op")
	b.ReportMetric(s.CacheHitRate(), "cache-hit-rate")
	if s.IndexSearches > 0 {
		b.ReportMetric(float64(s.IndexCandidates)/float64(s.IndexSearches), "cands/search")
		b.ReportMetric(float64(s.NeighborhoodQuantile(0.90)), "p90-cands/search")
	}
}

// --- Per-style routing on a fixed mid-size instance ---

func BenchmarkRoute(b *testing.B) {
	bm, err := gatedclock.GenerateBenchmark(gatedclock.BenchmarkConfig{
		Name: "route", NumSinks: 267, Seed: 101, StreamLen: 2000,
	})
	if err != nil {
		b.Fatal(err)
	}
	d, err := gatedclock.NewDesign(bm)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts gatedclock.Options
	}{
		{"bare", gatedclock.BareOptions()},
		{"buffered", gatedclock.BufferedOptions()},
		{"gated", gatedclock.GatedOptions()},
		{"gated-red", gatedclock.GatedReducedOptions()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var stats gatedclock.Stats
			for i := 0; i < b.N; i++ {
				res, err := d.Route(tc.opts)
				if err != nil {
					b.Fatal(err)
				}
				stats = res.Stats
			}
			reportRouterStats(b, stats)
		})
	}
}

// --- Micro-benchmarks: the hot kernels ---

func BenchmarkZeroSkewMerge(b *testing.B) {
	p := tech.Default()
	a := dme.Branch{MS: geom.FromPoint(geom.Pt(0, 0)), Delay: 120, Cap: 80, Driver: &p.Gate}
	c := dme.Branch{MS: geom.FromPoint(geom.Pt(900, 400)), Delay: 95, Cap: 60}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dme.ZeroSkewMerge(p, a, c); err != nil {
			b.Fatal(err)
		}
	}
}

func benchProfile(b *testing.B, modules, instrs, cycles int) (*activity.Profile, stream.Stream) {
	b.Helper()
	bm, err := gatedclock.GenerateBenchmark(gatedclock.BenchmarkConfig{
		Name: "p", NumSinks: modules, Seed: 5, NumInstr: instrs, StreamLen: cycles,
	})
	if err != nil {
		b.Fatal(err)
	}
	p, err := activity.NewProfile(bm.ISA, bm.Stream)
	if err != nil {
		b.Fatal(err)
	}
	return p, bm.Stream
}

func BenchmarkProfileScan(b *testing.B) {
	bm, err := gatedclock.GenerateBenchmark(gatedclock.BenchmarkConfig{
		Name: "scan", NumSinks: 256, Seed: 5, NumInstr: 32, StreamLen: 10000,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := activity.NewProfile(bm.ISA, bm.Stream); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignalProb(b *testing.B) {
	p, _ := benchProfile(b, 256, 32, 4000)
	set := p.SetForModules(0, 50, 100, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.SignalProb(set)
	}
}

func BenchmarkTransProb(b *testing.B) {
	p, _ := benchProfile(b, 256, 32, 4000)
	set := p.SetForModules(0, 50, 100, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.TransProb(set)
	}
}

// BenchmarkTableDrivenVsBrute quantifies the §3.3 speed-up of the
// table-driven probability computation over rescanning the stream.
func BenchmarkTableDrivenVsBrute(b *testing.B) {
	p, s := benchProfile(b, 256, 32, 10000)
	set := p.SetForModules(10, 20, 30)
	mask := activity.ModuleMask(256, 10, 20, 30)
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = p.SignalProb(set)
			_ = p.TransProb(set)
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = activity.BruteSignalProb(p.ISA, s, mask)
			_ = activity.BruteTransProb(p.ISA, s, mask)
		}
	})
}

func BenchmarkBenchmarkSynthesis(b *testing.B) {
	cfg := gatedclock.BenchmarkConfig{Name: "synth", NumSinks: 512, Seed: 3, NumInstr: 24, StreamLen: 4000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gatedclock.GenerateBenchmark(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarkovStream(b *testing.B) {
	d := isa.PaperExample()
	rng := rand.New(rand.NewPCG(1, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = stream.DefaultMarkov().Generate(d, 4000, rng)
	}
}

// --- Extension benchmarks ---

func BenchmarkSimulatorReplay(b *testing.B) {
	bm, err := gatedclock.GenerateBenchmark(gatedclock.BenchmarkConfig{
		Name: "simbench", NumSinks: 267, Seed: 101, StreamLen: 4000,
	})
	if err != nil {
		b.Fatal(err)
	}
	d, err := gatedclock.NewDesign(bm)
	if err != nil {
		b.Fatal(err)
	}
	res, err := d.Route(gatedclock.GatedReducedOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := res.Simulate(bm.Stream); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBoundedSkewSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunSkewSweep("r1", []float64{0, 50})
		if err != nil {
			b.Fatal(err)
		}
		experiments.PrintSkewSweep(io.Discard, "r1", rows)
	}
}

func BenchmarkGateOptimizer(b *testing.B) {
	bm, err := gatedclock.GenerateBenchmark(gatedclock.BenchmarkConfig{
		Name: "regatebench", NumSinks: 64, Seed: 9, StreamLen: 1500,
	})
	if err != nil {
		b.Fatal(err)
	}
	d, err := gatedclock.NewDesign(bm)
	if err != nil {
		b.Fatal(err)
	}
	res, err := d.Route(gatedclock.GatedReducedOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.OptimizeGates(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerilogExport(b *testing.B) {
	bm, err := gatedclock.GenerateBenchmark(gatedclock.BenchmarkConfig{
		Name: "vbench", NumSinks: 267, Seed: 101, StreamLen: 2000,
	})
	if err != nil {
		b.Fatal(err)
	}
	d, err := gatedclock.NewDesign(bm)
	if err != nil {
		b.Fatal(err)
	}
	res, err := d.Route(gatedclock.GatedReducedOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := d.WriteVerilog(io.Discard, res, "bench_clk"); err != nil {
			b.Fatal(err)
		}
	}
}
