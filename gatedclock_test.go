package gatedclock_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	gatedclock "repro"
)

func smallDesign(t *testing.T) *gatedclock.Design {
	t.Helper()
	b, err := gatedclock.GenerateBenchmark(gatedclock.BenchmarkConfig{
		Name: "t", NumSinks: 60, Seed: 77, NumInstr: 10, StreamLen: 1200,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := gatedclock.NewDesign(b)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPublicFlow(t *testing.T) {
	d := smallDesign(t)
	for _, opts := range []gatedclock.Options{
		gatedclock.BareOptions(),
		gatedclock.BufferedOptions(),
		gatedclock.GatedOptions(),
		gatedclock.GatedReducedOptions(),
		gatedclock.ReductionSweepOptions(0.3, d.Bench),
	} {
		res, err := d.Route(opts)
		if err != nil {
			t.Fatalf("%v/%v: %v", opts.Method, opts.Drivers, err)
		}
		if res.Tree.NumSinks() != 60 {
			t.Fatalf("sink count wrong")
		}
		if res.Report.SkewPs > 1e-6*(1+res.Report.MaxDelayPs) {
			t.Fatalf("%v/%v: skew %v", opts.Method, opts.Drivers, res.Report.SkewPs)
		}
		if res.Controller == nil || res.Controller.K() != 1 {
			t.Fatal("default controller must be centralized")
		}
	}
}

// TestModeOptions: each clock-style name the gcr command and the service
// accept maps to its constructor, and an unknown name is refused.
func TestModeOptions(t *testing.T) {
	for mode, want := range map[string]gatedclock.Options{
		"bare":      gatedclock.BareOptions(),
		"buffered":  gatedclock.BufferedOptions(),
		"gated":     gatedclock.GatedOptions(),
		"gated-red": gatedclock.GatedReducedOptions(),
	} {
		if got, ok := gatedclock.ModeOptions(mode); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("ModeOptions(%q) = %+v, %v; want %+v", mode, got, ok, want)
		}
	}
	if _, ok := gatedclock.ModeOptions("turbo"); ok {
		t.Error("unknown mode accepted")
	}
}

func TestGatedReducedBeatsBuffered(t *testing.T) {
	d := smallDesign(t)
	buf, err := d.Route(gatedclock.BufferedOptions())
	if err != nil {
		t.Fatal(err)
	}
	red, err := d.Route(gatedclock.GatedReducedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if red.Report.TotalSC >= buf.Report.TotalSC {
		t.Errorf("gated-reduced %v should beat buffered %v",
			red.Report.TotalSC, buf.Report.TotalSC)
	}
}

func TestDistributedControllerShrinksStar(t *testing.T) {
	d := smallDesign(t)
	run := func(k int) gatedclock.Report {
		opts := gatedclock.GatedReducedOptions()
		if k > 1 {
			c, err := gatedclock.DistributedController(d.Bench, k)
			if err != nil {
				t.Fatal(err)
			}
			opts.Controller = c
		}
		res, err := d.Route(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report
	}
	if r1, r4 := run(1), run(4); r4.StarWirelength >= r1.StarWirelength {
		t.Errorf("distributed star %v not below centralized %v",
			r4.StarWirelength, r1.StarWirelength)
	}
	if _, err := gatedclock.DistributedController(d.Bench, 3); err == nil {
		t.Error("k=3 must be rejected")
	}
}

func TestCheckActivityTables(t *testing.T) {
	d := smallDesign(t)
	if err := gatedclock.CheckActivityTables(d); err != nil {
		t.Fatal(err)
	}
}

func TestStandardBenchmarkNames(t *testing.T) {
	names := gatedclock.StandardBenchmarkNames()
	if len(names) != 5 || names[0] != "r1" || names[4] != "r5" {
		t.Errorf("names = %v", names)
	}
	if _, err := gatedclock.StandardBenchmark("nope"); err == nil {
		t.Error("unknown benchmark must fail")
	}
}

func TestNewDesignRejectsCorruptBenchmark(t *testing.T) {
	b, err := gatedclock.GenerateBenchmark(gatedclock.BenchmarkConfig{
		Name: "x", NumSinks: 10, Seed: 1, StreamLen: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Stream = b.Stream[:0]
	if _, err := gatedclock.NewDesign(b); err == nil {
		t.Error("empty stream must be rejected")
	}
}

func TestAnalyticStarLength(t *testing.T) {
	if got := gatedclock.AnalyticStarLength(8000, 200, 4); math.Abs(got-200*8000/8.0) > 1e-9 {
		t.Errorf("AnalyticStarLength = %v", got)
	}
}

func TestUngatedBoundHolds(t *testing.T) {
	d := smallDesign(t)
	res, err := d.Route(gatedclock.GatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Masking can only reduce clock-tree switched capacitance, and by no
	// more than the idle fraction allows.
	r := res.Report
	if r.ClockSC > r.UngatedSC {
		t.Errorf("gated clock SC %v above ungated %v", r.ClockSC, r.UngatedSC)
	}
	act := d.Profile.AvgModuleActivity()
	if ratio := r.ClockSC / r.UngatedSC; ratio < act-0.15 {
		t.Errorf("gated/ungated %v improbably below average activity %v", ratio, act)
	}
}

func TestSimulateMatchesReport(t *testing.T) {
	d := smallDesign(t)
	res, err := d.Route(gatedclock.GatedReducedOptions())
	if err != nil {
		t.Fatal(err)
	}
	sr, err := res.Simulate(d.Bench.Stream)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(sr.TotalSC-res.Report.TotalSC) / res.Report.TotalSC; rel > 1e-9 {
		t.Errorf("simulated %v vs reported %v", sr.TotalSC, res.Report.TotalSC)
	}
	bd, err := res.DomainBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(bd) != res.Report.NumGates+1 {
		t.Errorf("%d domains for %d gates", len(bd), res.Report.NumGates)
	}
}

func TestOptimizeGatesPublicAPI(t *testing.T) {
	d := smallDesign(t)
	res, err := d.Route(gatedclock.GatedOptions()) // all gates: plenty to strip
	if err != nil {
		t.Fatal(err)
	}
	opt, err := res.OptimizeGates(1)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Report.TotalSC > res.Report.TotalSC {
		t.Errorf("optimizer worsened SC: %v from %v", opt.Report.TotalSC, res.Report.TotalSC)
	}
	if opt.Report.SkewPs > 1e-6*(1+opt.Report.MaxDelayPs) {
		t.Errorf("optimized tree skew %v", opt.Report.SkewPs)
	}
}

func TestNetlistExportsPublicAPI(t *testing.T) {
	d := smallDesign(t)
	res, err := d.Route(gatedclock.GatedReducedOptions())
	if err != nil {
		t.Fatal(err)
	}
	var v, sp strings.Builder
	if err := d.WriteVerilog(&v, res, "t_clk"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v.String(), "module t_clk") {
		t.Error("Verilog module missing")
	}
	if err := res.WriteSpice(&sp, "t deck"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sp.String(), ".end") {
		t.Error("SPICE deck missing .end")
	}
}

func TestSkewBoundPublicAPI(t *testing.T) {
	d := smallDesign(t)
	opts := gatedclock.GatedReducedOptions()
	opts.SkewBoundPs = 40
	res, err := d.Route(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.SkewPs > 40+1e-6 {
		t.Errorf("skew %v exceeds the 40 ps bound", res.Report.SkewPs)
	}
	zero, err := d.Route(gatedclock.GatedReducedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.ClockWirelength > zero.Report.ClockWirelength {
		t.Errorf("budgeted run used more wire: %v vs %v",
			res.Report.ClockWirelength, zero.Report.ClockWirelength)
	}
}
