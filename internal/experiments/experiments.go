// Package experiments regenerates every table and figure of the paper's
// evaluation (§5–6) plus the ablations and scaling studies described in
// DESIGN.md. Each experiment has a Run function returning structured rows
// (consumed by tests and benchmarks) and a Print function rendering the
// rows the way the paper reports them.
package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	gatedclock "repro"
	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/report"
	"repro/internal/stream"
)

// --- Tables 1–3: the worked example of §3 ---

// WorkedExample reproduces the paper's 4-instruction, 6-module example:
// the RTL description (Table 1), the IFT (Table 2), the ITMAT (Table 3)
// and the probabilities computed from them.
type WorkedExample struct {
	ISA      *isa.Description
	Stream   stream.Stream
	Profile  *activity.Profile
	PM1      float64 // P(M1) — paper: 0.75
	PEN56    float64 // P(EN{M5,M6}) — paper: 0.55
	PtrEN56  float64 // Ptr(EN{M5,M6})
	PairI1I3 float64 // P(I1→I3) — paper: 3/19
}

// RunWorkedExample computes the §3 example.
func RunWorkedExample() (*WorkedExample, error) {
	d := isa.PaperExample()
	s := stream.PaperExample()
	prof, err := activity.NewProfile(d, s)
	if err != nil {
		return nil, err
	}
	en56 := prof.SetForModules(4, 5)
	return &WorkedExample{
		ISA:      d,
		Stream:   s,
		Profile:  prof,
		PM1:      prof.ModuleProb(0),
		PEN56:    prof.SignalProb(en56),
		PtrEN56:  prof.TransProb(en56),
		PairI1I3: prof.PairProb(0, 2),
	}, nil
}

// PrintWorkedExample renders Tables 1–3 and the derived probabilities.
func PrintWorkedExample(w io.Writer, ex *WorkedExample) {
	fmt.Fprintln(w, "Table 1: RTL description of instructions")
	fmt.Fprintln(w, ex.ISA.String())

	ift := report.New("Table 2: Instruction Frequency Table", "Instr", "P(I)")
	for k := 0; k < ex.ISA.NumInstr(); k++ {
		ift.AddRow(ex.ISA.Name(k), report.F(ex.Profile.Freq(k), 3))
	}
	ift.Fprint(w)

	cols := []string{"Prob", "Pair"}
	for m := 0; m < ex.ISA.NumModules; m++ {
		cols = append(cols, fmt.Sprintf("M%d", m+1))
	}
	itmat := report.New("Table 3: Instruction-Transition Module-Activation Table", cols...)
	for _, row := range ex.Profile.ITMATRows() {
		cells := []string{report.F(row.Prob, 3),
			fmt.Sprintf("%s>%s", ex.ISA.Name(row.A), ex.ISA.Name(row.B))}
		for _, t := range row.Tags {
			cells = append(cells, t.String())
		}
		itmat.AddRow(cells...)
	}
	itmat.Fprint(w)

	fmt.Fprintf(w, "P(M1)          = %.3f   (paper: 0.75)\n", ex.PM1)
	fmt.Fprintf(w, "P(EN{M5,M6})   = %.3f   (paper: 0.55)\n", ex.PEN56)
	fmt.Fprintf(w, "Ptr(EN{M5,M6}) = %.3f\n", ex.PtrEN56)
	fmt.Fprintf(w, "P(I1->I3)      = %.3f   (paper: 3/19 = 0.158)\n\n", ex.PairI1I3)
}

// --- Table 4: benchmark characteristics ---

// Table4Row is one line of Table 4.
type Table4Row struct {
	Name        string
	Sinks       int
	Instr       int
	Cycles      int
	AvgUsage    float64 // Ave(M(I)) — fraction of modules per instruction
	AvgActivity float64 // mean module activity P(M)
}

// RunTable4 generates the named benchmarks and summarizes them.
func RunTable4(names []string) ([]Table4Row, error) {
	var rows []Table4Row
	for _, name := range names {
		b, err := gatedclock.StandardBenchmark(name)
		if err != nil {
			return nil, err
		}
		d, err := gatedclock.NewDesign(b)
		if err != nil {
			return nil, err
		}
		st := stream.ComputeStats(b.Stream, b.ISA)
		rows = append(rows, Table4Row{
			Name:        name,
			Sinks:       b.NumSinks(),
			Instr:       b.ISA.NumInstr(),
			Cycles:      len(b.Stream),
			AvgUsage:    st.AvgUsage,
			AvgActivity: d.Profile.AvgModuleActivity(),
		})
	}
	return rows, nil
}

// PrintTable4 renders Table 4.
func PrintTable4(w io.Writer, rows []Table4Row) {
	t := report.New("Table 4: Benchmark characteristics for gated clock routing",
		"Bench", "No. of sinks", "No. of instr", "Stream cycles", "Ave(M(I))", "Avg activity")
	for _, r := range rows {
		t.AddRow(r.Name, report.I(r.Sinks), report.I(r.Instr), report.I(r.Cycles),
			report.F(r.AvgUsage, 3), report.F(r.AvgActivity, 3))
	}
	t.AddNote("paper: Ave(M(I)) ~= 0.40 for all benchmarks")
	t.Fprint(w)
}

// --- Figure 3: buffered vs gated vs gated+reduction ---

// Fig3Row compares the three clock-tree styles on one benchmark.
type Fig3Row struct {
	Bench    string
	Buffered gatedclock.Report
	Gated    gatedclock.Report
	GatedRed gatedclock.Report
}

// GatedVsBuffered returns the SC of the fully gated tree relative to the
// buffered tree minus one (positive = gated is worse, as the paper finds).
func (r Fig3Row) GatedVsBuffered() float64 {
	return r.Gated.TotalSC/r.Buffered.TotalSC - 1
}

// RedVsBuffered returns the SC of the gate-reduced tree relative to the
// buffered tree minus one (paper: about −0.30).
func (r Fig3Row) RedVsBuffered() float64 {
	return r.GatedRed.TotalSC/r.Buffered.TotalSC - 1
}

// RunFig3 routes every named benchmark in the three configurations.
func RunFig3(names []string) ([]Fig3Row, error) {
	var rows []Fig3Row
	for _, name := range names {
		b, err := gatedclock.StandardBenchmark(name)
		if err != nil {
			return nil, err
		}
		d, err := gatedclock.NewDesign(b)
		if err != nil {
			return nil, err
		}
		row := Fig3Row{Bench: name}
		for _, cfg := range []struct {
			opts gatedclock.Options
			dst  *gatedclock.Report
		}{
			{gatedclock.BufferedOptions(), &row.Buffered},
			{gatedclock.GatedOptions(), &row.Gated},
			{gatedclock.GatedReducedOptions(), &row.GatedRed},
		} {
			res, err := d.Route(cfg.opts)
			if err != nil {
				return nil, err
			}
			*cfg.dst = res.Report
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig3 renders the two bar groups of Figure 3 (switched capacitance
// and area) as tables.
func PrintFig3(w io.Writer, rows []Fig3Row) {
	sc := report.New("Figure 3a: Switched capacitance (fF/cycle, x1e3)",
		"Bench", "Buffered", "Gated", "Gate Red.", "Gated vs Buf", "Red vs Buf")
	for _, r := range rows {
		sc.AddRow(r.Bench,
			report.KiloF(r.Buffered.TotalSC, 1),
			report.KiloF(r.Gated.TotalSC, 1),
			report.KiloF(r.GatedRed.TotalSC, 1),
			report.Pct(r.GatedVsBuffered()),
			report.Pct(r.RedVsBuffered()))
	}
	sc.AddNote("paper: gated (no reduction) worse than buffered; gate reduction ~30%% below buffered")
	sc.Fprint(w)

	ar := report.New("Figure 3b: Area (x1e6 lambda^2)",
		"Bench", "Buffered", "Gated", "Gate Red.", "Gates kept")
	for _, r := range rows {
		ar.AddRow(r.Bench,
			report.MegaF(r.Buffered.TotalArea, 2),
			report.MegaF(r.Gated.TotalArea, 2),
			report.MegaF(r.GatedRed.TotalArea, 2),
			report.I(r.GatedRed.NumGates))
	}
	ar.AddNote("paper: star routing dominates gated area; reduced tree keeps an area overhead")
	ar.Fprint(w)
}

// --- Figure 4: average module activity vs switched capacitance ---

// Fig4Row is one activity point of the Figure 4 sweep.
type Fig4Row struct {
	Usage       float64 // per-instruction module usage fraction
	AvgActivity float64 // measured mean P(M)
	BufferedSC  float64
	GatedRedSC  float64
	UngatedSC   float64 // gated tree with enables stuck on
}

// RunFig4 sweeps the average module activity on one benchmark's geometry,
// comparing the gate-reduced tree against the buffered baseline.
func RunFig4(benchName string, usages []float64) ([]Fig4Row, error) {
	base, err := gatedclock.StandardBenchmark(benchName)
	if err != nil {
		return nil, err
	}
	var rows []Fig4Row
	for i, u := range usages {
		b, err := base.WithUsage(u, uint64(1000+i), stream.DefaultMarkov())
		if err != nil {
			return nil, err
		}
		d, err := gatedclock.NewDesign(b)
		if err != nil {
			return nil, err
		}
		buf, err := d.Route(gatedclock.BufferedOptions())
		if err != nil {
			return nil, err
		}
		red, err := d.Route(gatedclock.GatedReducedOptions())
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig4Row{
			Usage:       u,
			AvgActivity: d.Profile.AvgModuleActivity(),
			BufferedSC:  buf.Report.TotalSC,
			GatedRedSC:  red.Report.TotalSC,
			UngatedSC:   red.Report.UngatedSC,
		})
	}
	return rows, nil
}

// PrintFig4 renders the Figure 4 series.
func PrintFig4(w io.Writer, benchName string, rows []Fig4Row) {
	t := report.New(
		fmt.Sprintf("Figure 4: Average module activity vs switched capacitance (%s, x1e3)", benchName),
		"Activity", "Buffered", "Gate Red.", "Red vs Buf", "Red vs own ungated")
	for _, r := range rows {
		t.AddRow(report.F(r.AvgActivity, 2),
			report.KiloF(r.BufferedSC, 1),
			report.KiloF(r.GatedRedSC, 1),
			report.Pct(r.GatedRedSC/r.BufferedSC-1),
			report.F(r.GatedRedSC/r.UngatedSC, 2))
	}
	t.AddNote("paper: the gap shrinks as activity rises; gated power >= activity share of ungated")
	t.Fprint(w)
}

// --- Figure 5: gate reduction vs switched capacitance and area ---

// Fig5Row is one reduction point of the Figure 5 sweep.
type Fig5Row struct {
	Theta     float64 // sweep intensity
	Reduction float64 // achieved gate reduction (fraction of sites ungated)
	Gates     int
	ClockSC   float64
	CtrlSC    float64
	TotalSC   float64
	Area      float64
}

// RunFig5 sweeps the reduction intensity on one benchmark.
func RunFig5(benchName string, thetas []float64) ([]Fig5Row, error) {
	b, err := gatedclock.StandardBenchmark(benchName)
	if err != nil {
		return nil, err
	}
	d, err := gatedclock.NewDesign(b)
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for _, th := range thetas {
		res, err := d.Route(gatedclock.ReductionSweepOptions(th, b))
		if err != nil {
			return nil, err
		}
		rep := res.Report
		rows = append(rows, Fig5Row{
			Theta:     th,
			Reduction: rep.GateReduction(),
			Gates:     rep.NumGates,
			ClockSC:   rep.ClockSC,
			CtrlSC:    rep.CtrlSC,
			TotalSC:   rep.TotalSC,
			Area:      rep.TotalArea,
		})
	}
	return rows, nil
}

// OptimalFig5 returns the row with minimum total switched capacitance.
func OptimalFig5(rows []Fig5Row) Fig5Row {
	best := rows[0]
	for _, r := range rows[1:] {
		if r.TotalSC < best.TotalSC {
			best = r
		}
	}
	return best
}

// PrintFig5 renders the Figure 5 series.
func PrintFig5(w io.Writer, benchName string, rows []Fig5Row) {
	t := report.New(
		fmt.Sprintf("Figure 5: Gate reduction vs switched capacitance and area (%s)", benchName),
		"Theta", "Reduction", "Gates", "Clock SC(k)", "Ctrl SC(k)", "Total SC(k)", "Area(M)")
	for _, r := range rows {
		t.AddRow(report.F(r.Theta, 2), report.Pct(r.Reduction), report.I(r.Gates),
			report.KiloF(r.ClockSC, 1), report.KiloF(r.CtrlSC, 1),
			report.KiloF(r.TotalSC, 1), report.MegaF(r.Area, 2))
	}
	opt := OptimalFig5(rows)
	t.AddNote("optimum at %.0f%% reduction (%d gates), total SC %.1fk — paper reports an interior optimum (~55%%)",
		opt.Reduction*100, opt.Gates, opt.TotalSC/1e3)
	t.Fprint(w)
}

// --- Figure 6 / §6: centralized vs distributed controllers ---

// Fig6Row is one partition count of the distributed-controller study.
type Fig6Row struct {
	K          int     // number of controllers
	StarWL     float64 // measured total enable wirelength
	AnalyticWL float64 // G·D/(4·sqrt(k)) model of §6
	CtrlSC     float64
	TotalSC    float64
	StarArea   float64
}

// RunFig6 routes the benchmark with k distributed controllers for each k.
func RunFig6(benchName string, ks []int) ([]Fig6Row, error) {
	b, err := gatedclock.StandardBenchmark(benchName)
	if err != nil {
		return nil, err
	}
	d, err := gatedclock.NewDesign(b)
	if err != nil {
		return nil, err
	}
	var rows []Fig6Row
	for _, k := range ks {
		c, err := gatedclock.DistributedController(b, k)
		if err != nil {
			return nil, err
		}
		opts := gatedclock.GatedReducedOptions()
		opts.Controller = c
		res, err := d.Route(opts)
		if err != nil {
			return nil, err
		}
		rep := res.Report
		rows = append(rows, Fig6Row{
			K:          k,
			StarWL:     rep.StarWirelength,
			AnalyticWL: gatedclock.AnalyticStarLength(b.Die.W(), rep.NumGates, k),
			CtrlSC:     rep.CtrlSC,
			TotalSC:    rep.TotalSC,
			StarArea:   rep.StarWireArea,
		})
	}
	return rows, nil
}

// PrintFig6 renders the distributed-controller comparison.
func PrintFig6(w io.Writer, benchName string, rows []Fig6Row) {
	t := report.New(
		fmt.Sprintf("Figure 6 / section 6: distributed gate controllers (%s)", benchName),
		"k", "Star WL(k)", "Analytic WL(k)", "Ctrl SC(k)", "Total SC(k)", "Star area(M)")
	for _, r := range rows {
		t.AddRow(report.I(r.K),
			report.KiloF(r.StarWL, 1), report.KiloF(r.AnalyticWL, 1),
			report.KiloF(r.CtrlSC, 1), report.KiloF(r.TotalSC, 1),
			report.MegaF(r.StarArea, 2))
	}
	t.AddNote("paper: star routing area shrinks ~ 1/sqrt(k) with k partitions")
	t.Fprint(w)
}

// --- Complexity: construction cost scaling (§4.2, O(B + K^2 N^2)) ---

// ComplexityRow records the construction effort on one benchmark.
type ComplexityRow struct {
	Bench     string
	Sinks     int
	PairEvals int     // full Equation-3 evaluations (zero-skew merges solved)
	Skipped   int     // candidates discarded by the geometric lower bound
	CacheHit  float64 // fraction of candidate lookups served by the memo
	Merges    int
	Snakes    int
	Seconds   float64
	InitSec   float64 // initial best-partner scan
	GreedySec float64 // merge loop
}

// RunComplexity times the min-SC construction across benchmarks.
func RunComplexity(names []string) ([]ComplexityRow, error) {
	var rows []ComplexityRow
	for _, name := range names {
		b, err := gatedclock.StandardBenchmark(name)
		if err != nil {
			return nil, err
		}
		d, err := gatedclock.NewDesign(b)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := d.Route(gatedclock.GatedReducedOptions())
		if err != nil {
			return nil, err
		}
		rows = append(rows, ComplexityRow{
			Bench:     name,
			Sinks:     b.NumSinks(),
			PairEvals: res.Stats.PairEvals,
			Skipped:   res.Stats.PairEvalsSkipped,
			CacheHit:  res.Stats.CacheHitRate(),
			Merges:    res.Stats.Merges,
			Snakes:    res.Stats.Snakes,
			Seconds:   time.Since(start).Seconds(),
			InitSec:   res.Stats.PhaseInit.Seconds(),
			GreedySec: res.Stats.PhaseGreedy.Seconds(),
		})
	}
	return rows, nil
}

// PrintComplexity renders the scaling study.
func PrintComplexity(w io.Writer, rows []ComplexityRow) {
	t := report.New("Construction scaling (min-SC gated routing)",
		"Bench", "Sinks N", "Pair evals", "evals/N^2", "Skipped", "Cache hit",
		"Merges", "Snakes", "Init s", "Greedy s", "Seconds")
	for _, r := range rows {
		t.AddRow(r.Bench, report.I(r.Sinks), report.I(r.PairEvals),
			report.F(float64(r.PairEvals)/float64(r.Sinks*r.Sinks), 2),
			report.I(r.Skipped), report.F(r.CacheHit, 2),
			report.I(r.Merges), report.I(r.Snakes),
			report.F(r.InitSec, 2), report.F(r.GreedySec, 2), report.F(r.Seconds, 2))
	}
	t.AddNote("paper claims O(B + K^2 N^2); pair evals per N^2 should stay bounded")
	t.AddNote("skipped = lower-bound pruned; cache hit = memoized candidate lookups")
	t.Fprint(w)
}

// --- Ablations: merge schedule and stream model ---

// AblationRow compares gated-reduced routing under different merge methods
// and stream models on one benchmark.
type AblationRow struct {
	Variant string
	TotalSC float64
	ClockWL float64
	Gates   int
}

// RunAblation evaluates design-choice variants the paper's DESIGN.md calls
// out: Eq-3 cost vs pure-distance greedy vs balanced matching, and
// locality-preserving Markov streams vs IID streams.
func RunAblation(benchName string) ([]AblationRow, error) {
	b, err := gatedclock.StandardBenchmark(benchName)
	if err != nil {
		return nil, err
	}
	d, err := gatedclock.NewDesign(b)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, v := range []struct {
		name   string
		method gatedclock.Method
	}{
		{"min-SC greedy (paper)", gatedclock.MinSwitchedCap},
		{"clock-cap only [4]", gatedclock.MinClockCapOnly},
		{"activity-driven [5]", gatedclock.ActivityDriven},
		{"distance greedy", gatedclock.GreedyDistance},
		{"NN matching", gatedclock.NearestNeighbor},
		{"means-and-medians", gatedclock.MeansAndMedians},
	} {
		opts := gatedclock.GatedReducedOptions()
		opts.Method = v.method
		res, err := d.Route(opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant: v.name,
			TotalSC: res.Report.TotalSC,
			ClockWL: res.Report.ClockWirelength,
			Gates:   res.Report.NumGates,
		})
	}

	// Gate-sizing ablation (§1: gates "can be sized to adjust the phase
	// delay"): same reduction policy, drivers stepped up to meet the
	// sizing target.
	{
		opts := gatedclock.GatedReducedOptions()
		opts.SizeDrivers = true
		res, err := d.Route(opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant: "min-SC, sized gates",
			TotalSC: res.Report.TotalSC,
			ClockWL: res.Report.ClockWirelength,
			Gates:   res.Report.NumGates,
		})
	}

	// Stream-model ablation: destroy temporal locality with an IID stream
	// of the same marginals.
	cfg, err := bench.Standard(benchName)
	if err != nil {
		return nil, err
	}
	iidBench, err := bench.Generate(cfg)
	if err != nil {
		return nil, err
	}
	iidStream := remixIID(iidBench)
	iidBench.Stream = iidStream
	di, err := gatedclock.NewDesign(iidBench)
	if err != nil {
		return nil, err
	}
	res, err := di.Route(gatedclock.GatedReducedOptions())
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Variant: "min-SC, IID stream",
		TotalSC: res.Report.TotalSC,
		ClockWL: res.Report.ClockWirelength,
		Gates:   res.Report.NumGates,
	})
	return rows, nil
}

// remixIID rebuilds the benchmark's stream as an IID draw with the same
// per-instruction frequencies, removing all temporal locality.
func remixIID(b *bench.Benchmark) stream.Stream {
	counts := b.Stream.Counts(b.ISA.NumInstr())
	weights := make([]float64, len(counts))
	for i, c := range counts {
		weights[i] = float64(c)
	}
	return regen(b, stream.IID{Weights: weights})
}

func regen(b *bench.Benchmark, m stream.Model) stream.Stream {
	rng := rand.New(rand.NewPCG(0xab1a7e, 1))
	return m.Generate(b.ISA, len(b.Stream), rng)
}

// PrintAblation renders the ablation table.
func PrintAblation(w io.Writer, benchName string, rows []AblationRow) {
	t := report.New(fmt.Sprintf("Ablations (gate-reduced tree, %s)", benchName),
		"Variant", "Total SC(k)", "Clock WL(k)", "Gates")
	for _, r := range rows {
		t.AddRow(r.Variant, report.KiloF(r.TotalSC, 1), report.KiloF(r.ClockWL, 1), report.I(r.Gates))
	}
	t.AddNote("Eq-3 ordering and temporal locality should both lower total SC")
	t.Fprint(w)
}

// --- Analytic vs sampled activity tables ---

// AnalyticRow compares routing under the sampled stream profile against the
// exact stationary-chain profile with the same CPU model.
type AnalyticRow struct {
	Source  string // "sampled stream" or "analytic chain"
	TotalSC float64
	ClockSC float64
	CtrlSC  float64
	Gates   int
}

// RunAnalytic quantifies the sampling noise of the instruction stream: it
// routes the benchmark once with the profile scanned from its finite stream
// and once with the exact stationary Markov-chain profile. Close agreement
// validates both the generator and the table computations.
func RunAnalytic(benchName string) ([]AnalyticRow, error) {
	cfg, err := bench.Standard(benchName)
	if err != nil {
		return nil, err
	}
	b, err := bench.Generate(cfg)
	if err != nil {
		return nil, err
	}
	d, err := gatedclock.NewDesign(b)
	if err != nil {
		return nil, err
	}
	sampled, err := d.Route(gatedclock.GatedReducedOptions())
	if err != nil {
		return nil, err
	}

	model := cfg.Model
	if model == (stream.Markov{}) {
		model = stream.DefaultMarkov()
	}
	k := b.ISA.NumInstr()
	chainProf, err := activity.NewProfileFromChain(b.ISA, model.Stationary(k), model.TransitionMatrix(k))
	if err != nil {
		return nil, err
	}
	exact, err := gatedclock.RouteWithProfile(b, chainProf, gatedclock.GatedReducedOptions())
	if err != nil {
		return nil, err
	}

	mk := func(source string, r gatedclock.Report) AnalyticRow {
		return AnalyticRow{Source: source, TotalSC: r.TotalSC, ClockSC: r.ClockSC,
			CtrlSC: r.CtrlSC, Gates: r.NumGates}
	}
	return []AnalyticRow{
		mk("sampled stream", sampled.Report),
		mk("analytic chain", exact.Report),
	}, nil
}

// PrintAnalytic renders the comparison.
func PrintAnalytic(w io.Writer, benchName string, rows []AnalyticRow) {
	t := report.New(fmt.Sprintf("Sampled vs analytic activity tables (%s)", benchName),
		"Profile", "Total SC(k)", "Clock SC(k)", "Ctrl SC(k)", "Gates")
	for _, r := range rows {
		t.AddRow(r.Source, report.KiloF(r.TotalSC, 1), report.KiloF(r.ClockSC, 1),
			report.KiloF(r.CtrlSC, 1), report.I(r.Gates))
	}
	t.AddNote("finite-stream sampling noise should shift SC by only a few percent")
	t.Fprint(w)
}

// --- Bounded-skew extension: skew budget vs wire and power ---

// SkewRow is one budget point of the bounded-skew sweep.
type SkewRow struct {
	BudgetPs     float64
	Wirelength   float64
	TotalSC      float64
	VerifiedSkew float64 // from the independent Elmore analyzer
	Snakes       int
}

// RunSkewSweep routes the benchmark's gate-reduced tree under increasing
// skew budgets. Zero budget is the paper's exact zero-skew setting; larger
// budgets spend the slack on removing detour (snaking) wire, reducing both
// wirelength and switched capacitance.
func RunSkewSweep(benchName string, budgets []float64) ([]SkewRow, error) {
	b, err := gatedclock.StandardBenchmark(benchName)
	if err != nil {
		return nil, err
	}
	d, err := gatedclock.NewDesign(b)
	if err != nil {
		return nil, err
	}
	var rows []SkewRow
	for _, budget := range budgets {
		opts := gatedclock.GatedReducedOptions()
		opts.SkewBoundPs = budget
		res, err := d.Route(opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SkewRow{
			BudgetPs:     budget,
			Wirelength:   res.Report.ClockWirelength,
			TotalSC:      res.Report.TotalSC,
			VerifiedSkew: res.Report.SkewPs,
			Snakes:       res.Stats.Snakes,
		})
	}
	return rows, nil
}

// PrintSkewSweep renders the bounded-skew study.
func PrintSkewSweep(w io.Writer, benchName string, rows []SkewRow) {
	t := report.New(fmt.Sprintf("Bounded-skew extension (%s, gate-reduced tree)", benchName),
		"Budget (ps)", "Wirelength(k)", "Total SC(k)", "Verified skew (ps)", "Snakes")
	for _, r := range rows {
		t.AddRow(report.F(r.BudgetPs, 0), report.KiloF(r.Wirelength, 1),
			report.KiloF(r.TotalSC, 1), fmt.Sprintf("%.3g", r.VerifiedSkew), report.I(r.Snakes))
	}
	t.AddNote("budget 0 is the paper's exact zero skew; slack removes detour wire")
	t.Fprint(w)
}

// DefaultSkewBudgets returns the bounded-skew sweep points (ps).
func DefaultSkewBudgets() []float64 { return []float64{0, 10, 25, 50, 100, 200} }

// --- Gate-assignment optimality: §4.3 heuristics vs greedy local optimum ---

// RegateRow compares the heuristic gate assignment against the greedy
// exact-improvement optimum on the same topology.
type RegateRow struct {
	Variant string
	TotalSC float64
	Gates   int
	Flips   int
}

// RunRegate measures how close the paper's reduction rules land to a local
// optimum of the exact objective: the gate-reduced tree is re-optimized by
// greedy single-gate flips with full zero-skew re-solving per candidate.
func RunRegate(benchName string, maxPasses int) ([]RegateRow, error) {
	b, err := gatedclock.StandardBenchmark(benchName)
	if err != nil {
		return nil, err
	}
	d, err := gatedclock.NewDesign(b)
	if err != nil {
		return nil, err
	}
	res, err := d.Route(gatedclock.GatedReducedOptions())
	if err != nil {
		return nil, err
	}
	opt, err := res.OptimizeGates(maxPasses)
	if err != nil {
		return nil, err
	}
	return []RegateRow{
		{Variant: "reduction rules (§4.3)", TotalSC: res.Report.TotalSC, Gates: res.Report.NumGates},
		{Variant: "greedy flip optimum", TotalSC: opt.Report.TotalSC, Gates: opt.Report.NumGates},
	}, nil
}

// PrintRegate renders the comparison.
func PrintRegate(w io.Writer, benchName string, rows []RegateRow) {
	t := report.New(fmt.Sprintf("Gate-assignment optimality (%s)", benchName),
		"Assignment", "Total SC(k)", "Gates")
	for _, r := range rows {
		t.AddRow(r.Variant, report.KiloF(r.TotalSC, 1), report.I(r.Gates))
	}
	if len(rows) == 2 && rows[0].TotalSC > 0 {
		t.AddNote("heuristic within %.1f%% of the greedy local optimum",
			(rows[0].TotalSC/rows[1].TotalSC-1)*100)
	}
	t.Fprint(w)
}

// --- Process corners: robustness of the Figure 3 ordering ---

// CornerRow is one corner of the robustness study.
type CornerRow struct {
	Corner       string
	BufferedSC   float64
	GatedRedSC   float64
	RedVsBuf     float64
	GatedSkewPs  float64
	GatedDelayPs float64
}

// RunCorners re-evaluates the buffered and gate-reduced r-trees under
// derated process corners; the gated tree's advantage (and zero skew,
// which is ratio-driven under uniform derating) must survive variation.
func RunCorners(benchName string) ([]CornerRow, error) {
	b, err := gatedclock.StandardBenchmark(benchName)
	if err != nil {
		return nil, err
	}
	d, err := gatedclock.NewDesign(b)
	if err != nil {
		return nil, err
	}
	buf, err := d.Route(gatedclock.BufferedOptions())
	if err != nil {
		return nil, err
	}
	red, err := d.Route(gatedclock.GatedReducedOptions())
	if err != nil {
		return nil, err
	}
	bufC, err := buf.EvaluateCorners(nil)
	if err != nil {
		return nil, err
	}
	redC, err := red.EvaluateCorners(nil)
	if err != nil {
		return nil, err
	}
	var rows []CornerRow
	for i := range bufC {
		rows = append(rows, CornerRow{
			Corner:       bufC[i].Corner.Name,
			BufferedSC:   bufC[i].Report.TotalSC,
			GatedRedSC:   redC[i].Report.TotalSC,
			RedVsBuf:     redC[i].Report.TotalSC/bufC[i].Report.TotalSC - 1,
			GatedSkewPs:  redC[i].Report.SkewPs,
			GatedDelayPs: redC[i].Report.MaxDelayPs,
		})
	}
	return rows, nil
}

// PrintCorners renders the corner study.
func PrintCorners(w io.Writer, benchName string, rows []CornerRow) {
	t := report.New(fmt.Sprintf("Process-corner robustness (%s)", benchName),
		"Corner", "Buffered SC(k)", "Gate Red. SC(k)", "Red vs Buf", "Gated skew (ps)")
	for _, r := range rows {
		t.AddRow(r.Corner, report.KiloF(r.BufferedSC, 1), report.KiloF(r.GatedRedSC, 1),
			report.Pct(r.RedVsBuf), fmt.Sprintf("%.3g", r.GatedSkewPs))
	}
	t.AddNote("the SC advantage must survive variation; non-uniform derating turns a nominally zero-skew tree into a few-percent-of-delay corner skew (why corner-aware CTS exists)")
	t.Fprint(w)
}

// --- All ---

// RunAll executes every experiment, printing to w. benches selects the
// Figure 3 / Table 4 benchmark set.
func RunAll(w io.Writer, benches []string, sweepBench string) error {
	ex, err := RunWorkedExample()
	if err != nil {
		return err
	}
	PrintWorkedExample(w, ex)

	t4, err := RunTable4(benches)
	if err != nil {
		return err
	}
	PrintTable4(w, t4)

	f3, err := RunFig3(benches)
	if err != nil {
		return err
	}
	PrintFig3(w, f3)

	f4, err := RunFig4(sweepBench, DefaultFig4Usages())
	if err != nil {
		return err
	}
	PrintFig4(w, sweepBench, f4)

	f5, err := RunFig5(sweepBench, DefaultFig5Thetas())
	if err != nil {
		return err
	}
	PrintFig5(w, sweepBench, f5)

	f6, err := RunFig6(sweepBench, DefaultFig6Ks())
	if err != nil {
		return err
	}
	PrintFig6(w, sweepBench, f6)

	cx, err := RunComplexity(benches)
	if err != nil {
		return err
	}
	PrintComplexity(w, cx)

	ab, err := RunAblation(sweepBench)
	if err != nil {
		return err
	}
	PrintAblation(w, sweepBench, ab)

	an, err := RunAnalytic(sweepBench)
	if err != nil {
		return err
	}
	PrintAnalytic(w, sweepBench, an)

	sk, err := RunSkewSweep(sweepBench, DefaultSkewBudgets())
	if err != nil {
		return err
	}
	PrintSkewSweep(w, sweepBench, sk)

	co, err := RunCorners(sweepBench)
	if err != nil {
		return err
	}
	PrintCorners(w, sweepBench, co)

	rg, err := RunRegate(sweepBench, 2)
	if err != nil {
		return err
	}
	PrintRegate(w, sweepBench, rg)
	return nil
}

// DefaultFig4Usages returns the activity sweep points of Figure 4.
func DefaultFig4Usages() []float64 {
	return []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.55, 0.70, 0.85, 0.95}
}

// DefaultFig5Thetas returns the reduction sweep points of Figure 5.
func DefaultFig5Thetas() []float64 {
	return []float64{0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}

// DefaultFig6Ks returns the partition counts of the Figure 6 study.
func DefaultFig6Ks() []int { return []int{1, 2, 4, 8, 16} }
