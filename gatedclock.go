// Package gatedclock is a library for zero-skew gated clock routing that
// minimizes switched capacitance, reproducing Oh & Pedram, "Gated Clock
// Routing Minimizing the Switched Capacitance" (DATE 1998).
//
// A gated clock tree masks the clock at internal nodes with AND gates whose
// enables are computed from module activity and routed as a star from a
// gate controller. The router orders its bottom-up zero-skew merges by the
// switched capacitance each merge would add — clock wiring weighted by
// enable signal probability plus enable wiring weighted by enable
// transition probability — and applies the paper's gate-reduction
// heuristics to land at the power/area sweet spot.
//
// Typical use:
//
//	b := gatedclock.MustStandardBenchmark("r1")
//	d, err := gatedclock.NewDesign(b)
//	res, err := d.Route(gatedclock.GatedReducedOptions())
//	fmt.Println(res.Report.TotalSC, res.Report.SkewPs)
//
// The substrate packages (geometry, zero-skew merging, activity tables,
// controllers, the power evaluator, the replay simulator, netlist export)
// live under internal/ and are surfaced through this package's types and
// methods; see DESIGN.md for the full system inventory.
package gatedclock

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/gating"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/regate"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/verify"
)

// Re-exported types; see the internal packages for full documentation.
type (
	// Benchmark is a routing problem: die, sinks, ISA and instruction stream.
	Benchmark = bench.Benchmark
	// BenchmarkConfig parameterizes benchmark synthesis.
	BenchmarkConfig = bench.Config
	// Options configures a routing run (method, drivers, gate policy,
	// controller, technology).
	Options = core.Options
	// Stats reports construction statistics.
	Stats = core.Stats
	// Report is the evaluated power/area/timing of a routed tree.
	Report = power.Report
	// Tree is the routed clock tree.
	Tree = topology.Tree
	// Node is one clock-tree vertex.
	Node = topology.Node
	// Controller is a (possibly distributed) gate-controller configuration.
	Controller = ctrl.Controller
	// TechParams is the technology parameter set.
	TechParams = tech.Params
	// GatePolicy decides which edges carry masking gates.
	GatePolicy = gating.Policy
	// Reduction is the §4.3 gate-reduction heuristic.
	Reduction = gating.Reduction
	// Profile holds the IFT/ITMAT activity tables.
	Profile = activity.Profile
	// Method selects the merge-ordering heuristic.
	Method = core.Method
	// DriverMode selects what sits on tree edges.
	DriverMode = core.DriverMode
	// Stream is a per-cycle instruction trace.
	Stream = stream.Stream
	// SimResult is the cycle-accurate measurement of a replayed stream.
	SimResult = sim.Result
	// Corner derates the technology for process-corner analysis.
	Corner = power.Corner
	// CornerReport pairs a corner with its evaluation.
	CornerReport = power.CornerReport
	// Tracer receives construction spans (Options.Tracer; nil disables).
	Tracer = obs.Tracer
	// TraceSpan is one traced event: a construction phase or a single merge.
	TraceSpan = obs.Span
	// JSONLTracer streams spans as JSON Lines and can summarize them.
	JSONLTracer = obs.JSONLTracer
	// Metrics is a registry of counters/gauges/histograms (Options.Metrics).
	Metrics = obs.Registry
	// Manifest is the per-run provenance record (inputs, options, durations,
	// result digest) the gcr command can emit.
	Manifest = obs.Manifest
)

// NewJSONLTracer returns a tracer streaming spans to w as JSON Lines.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return obs.NewJSONL(w) }

// NewMetrics returns a fresh, empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// DefaultCorners returns the fast/nominal/slow corner set.
func DefaultCorners() []Corner { return power.DefaultCorners() }

// Routing method and driver-mode constants.
const (
	MinSwitchedCap  = core.MinSwitchedCap
	NearestNeighbor = core.NearestNeighbor
	GreedyDistance  = core.GreedyDistance
	MinClockCapOnly = core.MinClockCapOnly
	ActivityDriven  = core.ActivityDriven
	MeansAndMedians = core.MeansAndMedians
	GatedTree       = core.GatedTree
	BufferedTree    = core.BufferedTree
	BareTree        = core.BareTree
)

// AnalyticStarLength is the closed-form star-wirelength model of §6:
// G·D/(4·√k) for G gates on a side-D die split into k partitions.
func AnalyticStarLength(side float64, gates, k int) float64 {
	return ctrl.AnalyticStarLength(side, gates, k)
}

// DefaultTech returns the default technology parameters.
func DefaultTech() TechParams { return tech.Default() }

// GenerateBenchmark synthesizes a benchmark from a config.
func GenerateBenchmark(cfg BenchmarkConfig) (*Benchmark, error) { return bench.Generate(cfg) }

// StandardBenchmark generates one of the r1–r5 instances.
func StandardBenchmark(name string) (*Benchmark, error) {
	cfg, err := bench.Standard(name)
	if err != nil {
		return nil, err
	}
	return bench.Generate(cfg)
}

// MustStandardBenchmark is StandardBenchmark for the compiled-in names;
// it panics on error.
func MustStandardBenchmark(name string) *Benchmark { return bench.MustStandard(name) }

// StandardBenchmarkNames lists r1–r5.
func StandardBenchmarkNames() []string { return bench.StandardNames() }

// CentralizedController places one controller at the die center (§2).
func CentralizedController(b *Benchmark) *Controller { return ctrl.Centralized(b.Die) }

// DistributedController splits the die into k partitions (k a power of
// two), one controller each (§6, Figure 6).
func DistributedController(b *Benchmark, k int) (*Controller, error) {
	return ctrl.Distributed(b.Die, k)
}

// Design is a benchmark with its activity profile extracted — ready to
// route any number of times under different options.
type Design struct {
	Bench   *Benchmark
	Profile *Profile

	instance *core.Instance
}

// NewDesign validates the benchmark and scans its instruction stream once,
// building the IFT/ITMAT tables (§3.3).
func NewDesign(b *Benchmark) (*Design, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	prof, err := activity.NewProfile(b.ISA, b.Stream)
	if err != nil {
		return nil, err
	}
	return &Design{
		Bench:   b,
		Profile: prof,
		instance: &core.Instance{
			Die:      b.Die,
			SinkLocs: b.SinkLocs,
			SinkCaps: b.SinkCaps,
			Profile:  prof,
		},
	}, nil
}

// Result bundles the routed tree with its construction stats and exact
// evaluation.
type Result struct {
	Tree       *Tree
	Stats      Stats
	Report     Report
	Controller *Controller
	Options    Options

	instance *core.Instance // what Design.Route routed; OptimizeGates replays it
}

// Route constructs and evaluates a clock tree for the design.
func (d *Design) Route(opts Options) (*Result, error) {
	return d.RouteContext(context.Background(), opts)
}

// RouteContext is Route under a context: cancellation or deadline expiry
// aborts the construction at its internal checkpoints and returns an error
// wrapping ErrCanceled (and the context's own error), with no partial
// Result. When opts.Verify is set, the independent checker also
// cross-checks the evaluated power report (W(T), W(S), W = W(T)+W(S))
// against a from-scratch recomputation before the Result is returned.
func (d *Design) RouteContext(ctx context.Context, opts Options) (*Result, error) {
	c := opts.Controller
	if c == nil {
		c = ctrl.Centralized(d.Bench.Die)
		opts.Controller = c
	}
	tree, stats, err := core.RouteContext(ctx, d.instance, opts)
	if err != nil {
		if errors.Is(err, core.ErrInvalidInput) {
			return nil, fmt.Errorf("%w: %w", ErrInvalidBenchmark, err)
		}
		return nil, err
	}
	rep := power.Evaluate(tree, c, opts.Tech)
	if opts.Verify {
		if err := verify.Report(tree, c, opts.Tech, rep); err != nil {
			return nil, err
		}
	}
	return &Result{
		Tree:       tree,
		Stats:      stats,
		Report:     rep,
		Controller: c,
		Options:    opts,
		instance:   d.instance,
	}, nil
}

// RouteWithProfile routes a benchmark under an externally supplied activity
// profile (for example the exact stationary-chain profile from
// activity.NewProfileFromChain) instead of the profile scanned from the
// benchmark's own stream.
func RouteWithProfile(b *Benchmark, prof *Profile, opts Options) (*Result, error) {
	if prof.ISA != b.ISA {
		return nil, fmt.Errorf("gatedclock: profile built for a different ISA")
	}
	d := &Design{
		Bench:   b,
		Profile: prof,
		instance: &core.Instance{
			Die:      b.Die,
			SinkLocs: b.SinkLocs,
			SinkCaps: b.SinkCaps,
			Profile:  prof,
		},
	}
	return d.Route(opts)
}

// Simulate replays an instruction stream cycle-by-cycle over the routed
// tree and measures the switched capacitance directly — an independent
// check of the probabilistic Report and a way to evaluate workloads other
// than the one the tree was routed for.
func (r *Result) Simulate(tr Stream) (SimResult, error) {
	s, err := sim.New(r.Tree, r.Controller, r.Options.Tech)
	if err != nil {
		return SimResult{}, err
	}
	return s.Replay(tr)
}

// DomainBreakdown lists the routed tree's gating domains largest-first.
func (r *Result) DomainBreakdown() ([]sim.DomainBreakdown, error) {
	s, err := sim.New(r.Tree, r.Controller, r.Options.Tech)
	if err != nil {
		return nil, err
	}
	return s.Breakdown(), nil
}

// OptimizeGates runs the greedy exact-improvement optimizer over the
// result's gate assignment (internal/regate): single-gate flips are
// accepted while the exactly evaluated switched capacitance decreases.
// Every candidate replays the tree's topology through the router's own
// merge under the result's Options with the flipped assignment pinned, so
// buffers, sizing and the skew budget follow the router's rules. Returns a
// new Result never worse than the receiver, which is unchanged. maxPasses
// ≤ 0 selects 3. Only a Result from Design.Route can be optimized.
func (r *Result) OptimizeGates(maxPasses int) (*Result, error) {
	if r.instance == nil {
		return nil, errors.New("gatedclock: OptimizeGates needs a Result from Design.Route")
	}
	res, err := regate.Improve(r.instance, r.Options, r.Tree, maxPasses)
	if err != nil {
		return nil, err
	}
	opt := *r
	opt.Tree, opt.Report = res.Tree, res.Report
	return &opt, nil
}

// EvaluateCorners re-evaluates the routed tree under derated technology
// corners (nil selects fast/nominal/slow). The layout is fixed; only the
// electrical parameters move, as on silicon.
func (r *Result) EvaluateCorners(corners []Corner) ([]CornerReport, error) {
	return power.EvaluateCorners(r.Tree, r.Controller, r.Options.Tech, corners)
}

// WriteSpice emits the routed tree as a SPICE RC deck for transistor-level
// timing verification.
func (r *Result) WriteSpice(w io.Writer, title string) error {
	return netlist.Spice(w, r.Tree, r.Options.Tech, title)
}

// WriteVerilog emits a result of this design as structural Verilog: the
// clock distribution with its masking gates and buffers plus the
// controller's enable OR-logic over a one-hot instruction bus sized to the
// design's ISA.
func (d *Design) WriteVerilog(w io.Writer, r *Result, moduleName string) error {
	return netlist.Verilog(w, r.Tree, netlist.Options{
		ModuleName: moduleName,
		NumInstr:   d.Bench.ISA.NumInstr(),
	})
}

// BufferedOptions returns the paper's baseline: a buffered zero-skew tree
// built with the nearest-neighbour heuristic, buffers half the size of AND
// gates, no gating.
func BufferedOptions() Options {
	return Options{
		Tech:    tech.Default(),
		Method:  core.NearestNeighbor,
		Drivers: core.BufferedTree,
	}
}

// GatedOptions returns the fully gated configuration of Figure 3
// ("Gated"): a masking gate on every edge, merges ordered by Equation 3.
func GatedOptions() Options {
	return Options{
		Tech:    tech.Default(),
		Method:  core.MinSwitchedCap,
		Drivers: core.GatedTree,
		Policy:  gating.All{},
	}
}

// GatedReducedOptions returns the gate-reduction configuration of Figure 3
// ("Gate Red."): a nil Policy lets the router apply the default §4.3
// reduction thresholds sized to the instance's die.
func GatedReducedOptions() Options {
	return Options{
		Tech:    tech.Default(),
		Method:  core.MinSwitchedCap,
		Drivers: core.GatedTree,
	}
}

// BareOptions returns a driverless pure zero-skew wire tree (Tsay).
func BareOptions() Options {
	return Options{
		Tech:    tech.Default(),
		Method:  core.NearestNeighbor,
		Drivers: core.BareTree,
	}
}

// ModeOptions maps a clock-style name — "bare", "buffered", "gated" or
// "gated-red", the four configurations Figure 3 compares — to its option
// constructor; an unknown name reports false. The gcr command and the
// routing service both parse modes through it.
func ModeOptions(mode string) (Options, bool) {
	switch mode {
	case "bare":
		return BareOptions(), true
	case "buffered":
		return BufferedOptions(), true
	case "gated":
		return GatedOptions(), true
	case "gated-red":
		return GatedReducedOptions(), true
	}
	return Options{}, false
}

// ReductionSweepOptions maps a reduction intensity θ ∈ [0, 1] to a gated
// configuration for benchmark b — the Figure 5 sweep.
func ReductionSweepOptions(theta float64, b *Benchmark) Options {
	p := tech.Default()
	return Options{
		Tech:    p,
		Method:  core.MinSwitchedCap,
		Drivers: core.GatedTree,
		Policy:  gating.Sweep(theta, p.Gate.Cin, b.Die.W()),
	}
}

// CheckActivityTables cross-validates the design's table-driven P/Ptr
// against brute-force stream scans on a few module subsets; it returns the
// first inconsistency found, or nil.
func CheckActivityTables(d *Design) error {
	n := d.Bench.NumSinks()
	samples := [][]int{{0}, {n - 1}, {0, n / 2, n - 1}}
	for _, modules := range samples {
		if err := d.Profile.CheckConsistency(d.Bench.Stream, modules, 1e-9); err != nil {
			return fmt.Errorf("gatedclock: %w", err)
		}
	}
	return nil
}
