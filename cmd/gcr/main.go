// Command gcr routes one benchmark with the selected clock-tree style and
// prints the evaluated report.
//
// Usage:
//
//	gcr -bench r1 -mode gated-red                # standard benchmark
//	gcr -in mychip.bench -mode buffered          # benchmark from a file
//	gcr -sinks 100000 -placement clustered       # synthetic instance
//	gcr -sinks 4096 -placement ring -seed 7      # seeded synthetic instance
//	gcr -bench r2 -mode gated -controllers 4     # distributed controllers
//	gcr -bench r1 -mode gated-red -tree          # also dump the tree layout
//	gcr -bench r1 -mode gated-red -draw          # ASCII floorplan
//	gcr -bench r1 -mode gated-red -verify        # independent result checker
//	gcr -bench r5 -mode gated -timeout 30s       # bounded runtime
//	gcr -bench r1 -trace run.jsonl               # per-merge trace + flame summary
//	gcr -bench r1 -metrics                       # Prometheus-style metrics dump
//	gcr -bench r1 -manifest run.json             # reproducibility manifest
//	gcr -bench r5 -pprof localhost:6060          # live pprof server
//
// Contradictory or malformed flag combinations are rejected before any work
// starts, with exit status 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	gatedclock "repro"
	"repro/internal/bench"
	"repro/internal/draw"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	benchName := flag.String("bench", "", "standard benchmark name (r1..r5)")
	inFile := flag.String("in", "", "benchmark file (mutually exclusive with -bench)")
	sinks := flag.Int("sinks", 0, "synthesize an instance with this many sinks (mutually exclusive with -bench/-in)")
	placement := flag.String("placement", "uniform", "synthetic sink placement: uniform|clustered|hotspot|ring (with -sinks)")
	seed := flag.Uint64("seed", 1, "synthesis seed (with -sinks)")
	mode := flag.String("mode", "gated-red", "clock style: bare|buffered|gated|gated-red")
	controllers := flag.Int("controllers", 1, "number of distributed gate controllers (power of two)")
	dumpTree := flag.Bool("tree", false, "print the routed tree layout")
	drawMap := flag.Bool("draw", false, "render an ASCII floorplan of the routed tree")
	simulate := flag.Bool("simulate", false, "replay the benchmark's instruction stream cycle-by-cycle and compare with the probabilistic report")
	stats := flag.Bool("stats", false, "print router statistics: pair evals, pruning, cache hits, phase timings")
	workers := flag.Int("workers", 0, "goroutines for the initial best-partner scan (0 = GOMAXPROCS)")
	verifyTree := flag.Bool("verify", false, "run the independent post-construction checker on the routed tree and report")
	timeout := flag.Duration("timeout", 0, "abort routing after this duration (0 = no limit)")
	domains := flag.Int("domains", 0, "print the N largest gating domains")
	verilogOut := flag.String("verilog", "", "write a structural Verilog netlist to this file")
	spiceOut := flag.String("spice", "", "write a SPICE RC deck to this file")
	svgOut := flag.String("svg", "", "write an SVG floorplan to this file")
	traceOut := flag.String("trace", "", "write a JSONL span trace of the construction to this file and print a flame summary")
	metricsDump := flag.Bool("metrics", false, "attach a fresh metrics registry to the run and dump it (Prometheus text format) on exit")
	manifestOut := flag.String("manifest", "", "write a JSON run manifest (options, seed, durations, result digest) to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (host:port) for the duration of the run")
	flag.Parse()

	cfg := runCfg{
		benchName: *benchName, inFile: *inFile, mode: *mode, controllers: *controllers,
		sinks: *sinks, placement: *placement, seed: *seed,
		dumpTree: *dumpTree, drawMap: *drawMap, simulate: *simulate, domains: *domains,
		stats: *stats, workers: *workers,
		verify: *verifyTree, timeout: *timeout,
		verilogOut: *verilogOut, spiceOut: *spiceOut, svgOut: *svgOut,
		traceOut: *traceOut, metricsDump: *metricsDump,
		manifestOut: *manifestOut, pprofAddr: *pprofAddr,
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "gcr:", err)
		var ue *usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks a command line the tool refuses to act on: missing or
// contradictory flags, or an output destination that cannot be used — not a
// failure of the routing itself. main maps it to exit status 2 (the
// conventional usage-error status). err, when set, preserves the underlying
// cause (e.g. an *fs.PathError) for errors.Is/As inspection.
type usageError struct {
	msg string
	err error
}

func (e *usageError) Error() string {
	if e.err != nil {
		return e.msg + ": " + e.err.Error()
	}
	return e.msg
}

func (e *usageError) Unwrap() error { return e.err }

// usagef builds a usageError.
func usagef(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

// usageWrap builds a usageError that chains cause.
func usageWrap(cause error, format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...), err: cause}
}

// runCfg carries the parsed command line.
type runCfg struct {
	benchName, inFile, mode string
	sinks                   int
	placement               string
	seed                    uint64
	controllers, domains    int
	dumpTree, drawMap       bool
	simulate                bool
	stats, verify           bool
	timeout                 time.Duration
	workers                 int
	verilogOut, spiceOut    string
	svgOut                  string
	traceOut, manifestOut   string
	metricsDump             bool
	pprofAddr               string
}

// validate rejects malformed or contradictory flag combinations before any
// routing work starts. Every error it returns is a usageError.
func validate(cfg runCfg) error {
	switch {
	case cfg.benchName == "" && cfg.inFile == "" && cfg.sinks == 0:
		return usagef("need -bench, -in or -sinks")
	case cfg.benchName != "" && cfg.inFile != "":
		return usagef("-bench %q and -in %q are mutually exclusive", cfg.benchName, cfg.inFile)
	case cfg.sinks != 0 && (cfg.benchName != "" || cfg.inFile != ""):
		return usagef("-sinks is mutually exclusive with -bench/-in")
	case cfg.sinks < 0:
		return usagef("-sinks %d must be positive", cfg.sinks)
	}
	if cfg.sinks > 0 {
		valid := false
		for _, p := range bench.Placements() {
			if string(p) == cfg.placement {
				valid = true
				break
			}
		}
		if !valid {
			return usagef("unknown placement %q (want uniform|clustered|hotspot|ring)", cfg.placement)
		}
	}
	if _, ok := gatedclock.ModeOptions(cfg.mode); !ok {
		return usagef("unknown mode %q (want bare|buffered|gated|gated-red)", cfg.mode)
	}
	if cfg.controllers < 1 || cfg.controllers&(cfg.controllers-1) != 0 {
		return usagef("-controllers %d must be a power of two >= 1", cfg.controllers)
	}
	if cfg.timeout < 0 {
		return usagef("-timeout %v must not be negative", cfg.timeout)
	}
	if cfg.workers < 0 {
		return usagef("-workers %d must not be negative", cfg.workers)
	}
	if cfg.domains < 0 {
		return usagef("-domains %d must not be negative", cfg.domains)
	}
	if cfg.pprofAddr != "" {
		if _, _, err := net.SplitHostPort(cfg.pprofAddr); err != nil {
			return usagef("-pprof %q is not a host:port address: %v", cfg.pprofAddr, err)
		}
	}
	return nil
}

func run(w io.Writer, cfg runCfg) error {
	if err := validate(cfg); err != nil {
		return err
	}
	// Create the run's output files before any routing work: an unwritable
	// -trace or -manifest destination is a usage error (exit 2) surfaced in
	// milliseconds, not after minutes of routing.
	var traceFile, manifestFile *os.File
	if cfg.traceOut != "" {
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return usageWrap(err, "-trace %q is not writable", cfg.traceOut)
		}
		defer f.Close()
		traceFile = f
	}
	if cfg.manifestOut != "" {
		f, err := os.Create(cfg.manifestOut)
		if err != nil {
			return usageWrap(err, "-manifest %q is not writable", cfg.manifestOut)
		}
		defer f.Close()
		manifestFile = f
	}
	startedAt := time.Now()
	benchName, inFile, mode := cfg.benchName, cfg.inFile, cfg.mode
	controllers, dumpTree, drawMap := cfg.controllers, cfg.dumpTree, cfg.drawMap
	simulate, domains := cfg.simulate, cfg.domains

	if cfg.pprofAddr != "" {
		ln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			return err
		}
		defer ln.Close()
		srv := &http.Server{}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(w, "pprof server on http://%s/debug/pprof/\n", ln.Addr())
	}

	var b *gatedclock.Benchmark
	var seed uint64
	var err error
	switch {
	case inFile != "":
		f, err := os.Open(inFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if b, err = bench.Read(f); err != nil {
			return err
		}
	case cfg.sinks > 0:
		seed = cfg.seed
		bc := bench.Config{
			Name:      fmt.Sprintf("synth-%s-%d", cfg.placement, cfg.sinks),
			NumSinks:  cfg.sinks,
			Seed:      cfg.seed,
			Placement: bench.Placement(cfg.placement),
		}
		if b, err = bench.Generate(bc); err != nil {
			return err
		}
	default:
		cfg, err := bench.Standard(benchName)
		if err != nil {
			return err
		}
		seed = cfg.Seed
		if b, err = bench.Generate(cfg); err != nil {
			return err
		}
	}

	d, err := gatedclock.NewDesign(b)
	if err != nil {
		return err
	}

	opts, _ := gatedclock.ModeOptions(mode) // validate checked the name
	if controllers > 1 {
		c, err := gatedclock.DistributedController(b, controllers)
		if err != nil {
			return err
		}
		opts.Controller = c
	}
	opts.Workers = cfg.workers
	opts.Verify = cfg.verify

	var tr *gatedclock.JSONLTracer
	if traceFile != nil {
		tr = gatedclock.NewJSONLTracer(traceFile)
		opts.Tracer = tr
	}
	if cfg.metricsDump {
		opts.Metrics = gatedclock.NewMetrics()
	}

	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	res, err := d.RouteContext(ctx, opts)
	if err != nil {
		return err
	}
	printReport(w, b, mode, res)
	if cfg.stats {
		printStats(w, res.Stats)
	}
	if dumpTree {
		printTree(w, res.Tree)
	}
	if drawMap {
		fmt.Fprint(w, draw.Tree(res.Tree, b.Die, res.Controller, draw.Config{}))
	}
	if simulate {
		sr, err := res.Simulate(b.Stream)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "cycle-accurate replay over %d cycles:\n", sr.Cycles)
		fmt.Fprintf(w, "  clock SC %.1f (predicted %.1f)   ctrl SC %.1f (predicted %.1f)   gates on %.0f%% of the time\n",
			sr.ClockSC, res.Report.ClockSC, sr.CtrlSC, res.Report.CtrlSC, sr.GateOnFraction*100)
	}
	if cfg.verilogOut != "" {
		f, err := os.Create(cfg.verilogOut)
		if err != nil {
			return err
		}
		if err := d.WriteVerilog(f, res, "gated_clock_tree"); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote Verilog netlist to %s\n", cfg.verilogOut)
	}
	if cfg.svgOut != "" {
		svg := draw.SVG(res.Tree, b.Die, res.Controller, draw.SVGConfig{})
		if err := os.WriteFile(cfg.svgOut, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote SVG floorplan to %s\n", cfg.svgOut)
	}
	if cfg.spiceOut != "" {
		f, err := os.Create(cfg.spiceOut)
		if err != nil {
			return err
		}
		if err := res.WriteSpice(f, b.Name+" clock tree"); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote SPICE deck to %s\n", cfg.spiceOut)
	}
	if domains > 0 {
		bd, err := res.DomainBreakdown()
		if err != nil {
			return err
		}
		t := report.New(fmt.Sprintf("largest %d gating domains", domains),
			"Cap (fF)", "P(EN)", "Sinks", "Gate at")
		for i, d := range bd {
			if i >= domains {
				break
			}
			p, at := "always on", "-"
			if d.Gated {
				p = report.F(d.P, 2)
				at = fmt.Sprintf("(%.0f, %.0f)", d.Location.X, d.Location.Y)
			}
			t.AddRow(report.F(d.Cap, 0), p, report.I(d.Sinks), at)
		}
		t.Fprint(w)
	}
	if tr != nil {
		if err := tr.Err(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := traceFile.Close(); err != nil {
			return err
		}
		if err := tr.WriteSummary(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote trace to %s (%d merge spans)\n", cfg.traceOut, tr.MergeCount())
	}
	if manifestFile != nil {
		if err := writeManifest(manifestFile, cfg, b, seed, res, startedAt); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote run manifest to %s\n", cfg.manifestOut)
	}
	if opts.Metrics != nil {
		if err := opts.Metrics.WriteProm(w); err != nil {
			return err
		}
	}
	return nil
}

// writeManifest records the run's provenance: inputs, flag-level options,
// phase durations and the canonical result digest. f was created up front,
// before routing; writeManifest closes it.
func writeManifest(f *os.File, cfg runCfg, b *gatedclock.Benchmark, seed uint64,
	res *gatedclock.Result, startedAt time.Time) error {
	benchLabel := cfg.benchName
	if benchLabel == "" {
		benchLabel = cfg.inFile
	}
	if benchLabel == "" && cfg.sinks > 0 {
		benchLabel = b.Name // synth-<placement>-<N>
	}
	s := res.Stats
	m := &obs.Manifest{
		Tool:      "gcr",
		StartedAt: startedAt,
		Bench:     benchLabel,
		Seed:      seed,
		Sinks:     b.NumSinks(),
		Options: map[string]any{
			"mode":        cfg.mode,
			"controllers": cfg.controllers,
			"workers":     cfg.workers,
			"verify":      cfg.verify,
			"timeout":     cfg.timeout.String(),
		},
		DurationsNs: map[string]int64{
			"init":   int64(s.PhaseInit),
			"greedy": int64(s.PhaseGreedy),
			"embed":  int64(s.PhaseEmbed),
			"total":  int64(time.Since(startedAt)),
		},
		ResultDigest: res.Tree.Digest(),
		Result: map[string]any{
			"total_sc_ff": res.Report.TotalSC,
			"clock_sc_ff": res.Report.ClockSC,
			"ctrl_sc_ff":  res.Report.CtrlSC,
			"wirelength":  res.Report.ClockWirelength,
			"gates":       res.Report.NumGates,
			"buffers":     res.Report.NumBuffers,
			"skew_ps":     res.Report.SkewPs,
			"merges":      s.Merges,
			"snakes":      s.Snakes,
		},
	}
	if err := m.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printReport(w io.Writer, b *gatedclock.Benchmark, mode string, res *gatedclock.Result) {
	rep := res.Report
	t := report.New(fmt.Sprintf("%s / %s (%d sinks, %d controller(s))",
		b.Name, mode, b.NumSinks(), res.Controller.K()),
		"Metric", "Value")
	t.AddRow("switched capacitance (fF/cycle)", report.F(rep.TotalSC, 1))
	t.AddRow("  clock tree W(T)", report.F(rep.ClockSC, 1))
	t.AddRow("  controller tree W(S)", report.F(rep.CtrlSC, 1))
	t.AddRow("  same tree ungated", report.F(rep.UngatedSC, 1))
	t.AddRow("clock wirelength (lambda)", report.F(rep.ClockWirelength, 0))
	t.AddRow("enable star wirelength (lambda)", report.F(rep.StarWirelength, 0))
	t.AddRow("masking gates", report.I(rep.NumGates))
	t.AddRow("buffers", report.I(rep.NumBuffers))
	t.AddRow("total area (lambda^2)", report.F(rep.TotalArea, 0))
	t.AddRow("phase delay (ps)", report.F(rep.MaxDelayPs, 1))
	t.AddRow("skew (ps)", fmt.Sprintf("%.3g", rep.SkewPs))
	t.AddRow("merges / snakes", fmt.Sprintf("%d / %d", res.Stats.Merges, res.Stats.Snakes))
	t.Fprint(w)
}

// printStats renders the construction statistics of the fast greedy: how
// many candidate pairs were fully evaluated, pruned by the lower bound or
// served by the memo, and where the wall time went.  When the spatial
// index ran (large instances) its search counters are shown too.
func printStats(w io.Writer, s gatedclock.Stats) {
	t := report.New("router statistics", "Counter", "Value")
	t.AddRow("pair evals (merges solved)", report.I(s.PairEvals))
	t.AddRow("pair evals skipped (lower bound)", report.I(s.PairEvalsSkipped))
	t.AddRow("pair lookups cached (memo)", report.I(s.PairEvalsCached))
	t.AddRow("pair costs stored (memo)", report.I(s.PairMemoStores))
	t.AddRow("cache hit rate", fmt.Sprintf("%.1f%%", s.CacheHitRate()*100))
	if s.IndexSearches > 0 {
		t.AddRow("index searches", report.I(s.IndexSearches))
		t.AddRow("index candidates emitted", report.I(s.IndexCandidates))
		t.AddRow("  avg per search", report.F(float64(s.IndexCandidates)/float64(s.IndexSearches), 1))
		t.AddRow("  p50 / p90 neighborhood", fmt.Sprintf("<=%d / <=%d",
			s.NeighborhoodQuantile(0.50), s.NeighborhoodQuantile(0.90)))
		t.AddRow("index regions visited", report.I(s.IndexRegionsVisited))
		t.AddRow("index rebuilds", report.I(s.IndexRebuilds))
	}
	t.AddRow("phase: initial scan", s.PhaseInit.Round(time.Microsecond).String())
	t.AddRow("phase: greedy merge loop", s.PhaseGreedy.Round(time.Microsecond).String())
	t.AddRow("phase: embed + validate", s.PhaseEmbed.Round(time.Microsecond).String())
	t.Fprint(w)
}

func printTree(w io.Writer, t *gatedclock.Tree) {
	fmt.Fprintf(w, "source (%.1f, %.1f)\n", t.Source.X, t.Source.Y)
	var walk func(n *gatedclock.Node, depth int)
	walk = func(n *gatedclock.Node, depth int) {
		if n == nil {
			return
		}
		for i := 0; i < depth; i++ {
			fmt.Fprint(w, "  ")
		}
		kind := "steiner"
		if n.IsSink() {
			kind = fmt.Sprintf("sink M%d", n.SinkIndex+1)
		}
		driver := ""
		if n.Driver != nil {
			driver = " +" + n.Driver.Name
			if n.Gated() {
				driver = fmt.Sprintf(" +gate[P=%.2f Ptr=%.2f]", n.P, n.Ptr)
			}
		}
		fmt.Fprintf(w, "%s (%.1f, %.1f) edge=%.1f%s\n", kind, n.Loc.X, n.Loc.Y, n.EdgeLen, driver)
		walk(n.Left, depth+1)
		walk(n.Right, depth+1)
	}
	walk(t.Root, 0)
}
