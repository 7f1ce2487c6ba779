package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	gatedclock "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/power"
	"repro/internal/topology"
	"repro/internal/verify"
)

// digest100k is the tree digest of `gcr -sinks 100000 -seed 1`.
const digest100k = "e1823fe9e9028450ab81d624abd1df6f737f88f75b73225f571ce386bce921a4"

// setUp runs build repeatedly — at least 5 times and until a second has
// passed, at most 50 — timing each call; setup_s is the median. The
// workload keeps what the last call built; release, when build returns
// one, frees an earlier call's product outside the timed part. The cap
// matters to the serving workloads: every deployment leaves closed
// connections in TIME_WAIT for a minute, and thousands of them slow the
// connects of the next run's set-up. With SetupOnly, setUp frees the last
// product too and returns errSetupOnly, which ends the workload.
func (r *run) setUp(build func() (release func(), err error)) error {
	const minReps, maxReps, budget = 5, 50, time.Second
	begin := time.Now()
	for i := 1; ; i++ {
		start := time.Now()
		release, err := build()
		if err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(start))
		last := i >= maxReps || (i >= minReps && time.Since(begin) >= budget)
		if last && !r.cfg.SetupOnly {
			return nil
		}
		if release != nil {
			release()
		}
		if last {
			return errSetupOnly
		}
	}
}

var errSetupOnly = errors.New("set-up only")

// routeEnclosing: core phase spans come from core.RouteContext, which the
// benchmark wraps in a core.route span.
var routeEnclosing = map[string]string{
	"core.init": "core.route", "core.greedy": "core.route", "core.embed": "core.route",
}

// design synthesizes an instance and scans its activity profile
// (gatedclock.NewDesign), each call a set-up layer.
func (r *run) design(parent int64, bc bench.Config) (*gatedclock.Design, error) {
	var b *bench.Benchmark
	err := r.tr.layer("bench.generate", parent, 0, func(int64) (err error) {
		b, err = bench.Generate(bc)
		return err
	})
	if err != nil {
		return nil, err
	}
	var d *gatedclock.Design
	err = r.tr.layer("activity.profile", parent, 0, func(int64) (err error) {
		d, err = gatedclock.NewDesign(b)
		return err
	})
	return d, err
}

// routed is one routed design.
type routed struct {
	tree *topology.Tree
	rep  power.Report
	opts core.Options  // as routed, controller included
	core time.Duration // wall time of core.RouteContext
}

// routeOp routes a design as gatedclock's Design.RouteContext does —
// core.RouteContext, then power.Evaluate — calling each layer itself so
// each gets its own span. With check set it also runs the independent
// verifier on the tree and on the report, the work Options.Verify adds
// (the `gcr -verify` flow).
func (r *run) routeOp(ctx context.Context, parent int64, d *gatedclock.Design, opts core.Options, check bool) (routed, error) {
	opts.Controller = ctrl.Centralized(d.Bench.Die)
	opts.Tracer = r.tr.tracer()
	in := &core.Instance{Die: d.Bench.Die, SinkLocs: d.Bench.SinkLocs,
		SinkCaps: d.Bench.SinkCaps, Profile: d.Profile}
	out := routed{opts: opts}
	var stats core.Stats
	start := time.Now()
	err := r.tr.layer("core.route", parent, 0, func(int64) (err error) {
		out.tree, stats, err = core.RouteContext(ctx, in, opts)
		return err
	})
	out.core = time.Since(start)
	if err != nil {
		return out, err
	}
	r.addStats(stats, opts.Method != core.NearestNeighbor && opts.Method != core.MeansAndMedians)
	r.tr.layer("power.evaluate", parent, 0, func(int64) error {
		out.rep = power.Evaluate(out.tree, opts.Controller, opts.Tech)
		return nil
	})
	if check {
		err = r.check(parent, out)
	}
	return out, err
}

// check runs the independent verifier over a routed tree and its report.
func (r *run) check(parent int64, rt routed) error {
	return r.tr.layer("verify.check", parent, 0, func(int64) error {
		if err := verify.Tree(rt.tree, rt.opts.Tech, rt.opts.SkewBoundPs); err != nil {
			return err
		}
		return verify.Report(rt.tree, rt.opts.Controller, rt.opts.Tech, rt.rep)
	})
}

func (r *run) digest(parent int64, tree *topology.Tree) string {
	var d string
	r.tr.layer("topology.digest", parent, 0, func(int64) error {
		d = tree.Digest()
		return nil
	})
	return d
}

// route100k is `gcr -sinks 100000 -seed 1` with one worker: the headline
// wall time. The verifier and the digest run after the timed route.
func route100k(ctx context.Context, r *run) error {
	r.enclosing = routeEnclosing
	n := 100_000
	if r.cfg.Short {
		n = 2000
	}
	bc := bench.Config{Name: fmt.Sprintf("synth-uniform-%d", n), NumSinks: n,
		Seed: r.cfg.Seed, Placement: bench.PlaceUniform}
	var d *gatedclock.Design
	err := r.setUp(func() (func(), error) {
		return nil, r.tr.layer("perf.setup", 0, 0, func(id int64) (err error) {
			d, err = r.design(id, bc)
			return err
		})
	})
	if err != nil {
		return err
	}
	opts := gatedclock.GatedReducedOptions()
	opts.Workers = 1

	r.beginMeasure()
	var rt routed
	start := time.Now()
	err = r.tr.layer("perf.op", 0, 1, func(id int64) (err error) {
		rt, err = r.routeOp(ctx, id, d, opts, false)
		return err
	})
	r.ops = append(r.ops, time.Since(start))
	r.endMeasure()
	r.res.Attempted = 1
	if err != nil {
		r.res.Failed = 1
		return err
	}
	r.res.Details["route_s"] = r.ops[0].Seconds()

	return r.tr.layer("perf.check", 0, 1, func(id int64) error {
		if err := r.check(id, rt); err != nil {
			r.problem("verify: %v", err)
		}
		r.res.Trees = r.digest(id, rt.tree)
		if r.pinned() && !r.cfg.Short && r.res.Trees != digest100k {
			r.problem("tree digest %s, pinned %s", r.res.Trees, digest100k)
		}
		return nil
	})
}

// instance is one route-mix entry.
type instance struct {
	label   string
	cfg     bench.Config
	opts    core.Options
	scaling bool // one of the r1–r5 gated-red routes the §4.2 fit uses
}

// mixOptions maps a route-mix mode to its option set, as gcr builds it.
func mixOptions(mode string) core.Options {
	var o core.Options
	switch mode {
	case "buffered":
		o = gatedclock.BufferedOptions()
	case "gated":
		o = gatedclock.GatedOptions()
	case "activity":
		o = gatedclock.GatedReducedOptions()
		o.Method = core.ActivityDriven
	default:
		o = gatedclock.GatedReducedOptions()
	}
	o.Workers = 1
	return o
}

// mixInstances is the route-mix suite: r1–r5 in the three styles of the
// paper's Figure 3, r1 and r2 under the activity-driven topology of [5],
// small synthetic instances of every placement (the exhaustive candidate
// path) and N=2048 non-uniform ones (the indexed path off the uniform
// grid). r1–r5 are fixed instances; the synthetic ones draw their seeds
// from seed. short keeps the instances of at most 300 sinks.
func mixInstances(seed uint64, short bool) []instance {
	var out []instance
	add := func(label string, cfg bench.Config, mode string, scaling bool) {
		if short && cfg.NumSinks > 300 {
			return
		}
		out = append(out, instance{label: label + "/" + mode, cfg: cfg, opts: mixOptions(mode), scaling: scaling})
	}
	for _, name := range bench.StandardNames() {
		cfg, _ := bench.Standard(name) // compiled-in names
		for _, mode := range []string{"buffered", "gated", "gated-red"} {
			add(name, cfg, mode, mode == "gated-red")
		}
		if name == "r1" || name == "r2" {
			add(name, cfg, "activity", false)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x6d6978))
	synth := func(n int, p bench.Placement, modes ...string) {
		label := fmt.Sprintf("%s-%d", p, n)
		cfg := bench.Config{Name: label, NumSinks: n, Seed: rng.Uint64(), Placement: p}
		for _, mode := range modes {
			add(label, cfg, mode, false)
		}
	}
	for _, n := range []int{24, 48, 96} {
		for _, p := range bench.Placements() {
			synth(n, p, "gated", "gated-red")
		}
	}
	for _, p := range []bench.Placement{bench.PlaceClustered, bench.PlaceHotspot, bench.PlaceRing} {
		synth(2048, p, "gated-red")
	}
	return out
}

// routeMix routes the suite once untimed, then in timed passes for the
// run's seconds (one pass when short). Every route runs
// the verifier and must reproduce the instance's first tree digest.
func routeMix(ctx context.Context, r *run) error {
	r.enclosing = routeEnclosing
	insts := mixInstances(r.cfg.Seed, r.cfg.Short)
	designs := make([]*gatedclock.Design, len(insts))
	err := r.setUp(func() (func(), error) {
		return nil, r.tr.layer("perf.setup", 0, 0, func(id int64) error {
			for i, in := range insts {
				d, err := r.design(id, in.cfg)
				if err != nil {
					return fmt.Errorf("%s: %w", in.label, err)
				}
				designs[i] = d
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	var pins map[string]string
	if r.pinned() {
		if pins, err = loadPins("route-mix"); err != nil {
			return err
		}
	}

	digests := make([]string, len(insts))
	opMs := make([][]float64, len(insts))   // per instance, every timed route
	coreMs := make([][]float64, len(insts)) // the same, core.RouteContext alone
	once := func(i int, timed bool) {
		in := insts[i]
		var rt routed
		t0 := time.Now()
		err := r.tr.layer("perf.op", 0, int64(i+1), func(id int64) (err error) {
			rt, err = r.routeOp(ctx, id, designs[i], in.opts, true)
			return err
		})
		lat := time.Since(t0)
		if timed {
			r.res.Attempted++
		}
		if err != nil {
			if timed {
				r.res.Failed++
			}
			r.problem("%s: %v", in.label, err)
			return
		}
		var got string
		r.tr.layer("perf.check", 0, int64(i+1), func(id int64) error {
			got = r.digest(id, rt.tree)
			return nil
		})
		switch want, ok := pins[in.label]; {
		case digests[i] == "" && pins != nil && (!ok || want != got):
			r.problem("%s: tree digest %s, pinned %q", in.label, got, want)
		case digests[i] != "" && digests[i] != got:
			r.problem("%s: tree digest %s differs from an earlier route's %s", in.label, got, digests[i])
		}
		digests[i] = got
		if timed {
			opMs[i] = append(opMs[i], ms(lat))
			coreMs[i] = append(coreMs[i], ms(rt.core))
		}
	}
	// A pass routes every instance once. The metrics rest on the large
	// instances, which get one sample a pass, so the more passes a run
	// holds the better their minimums repeat.
	pass := func(timed bool) time.Duration {
		start := time.Now()
		for i := range insts {
			once(i, timed)
		}
		return time.Since(start)
	}

	if !r.cfg.Short {
		pass(false)
	}
	r.beginMeasure()
	budget := time.Duration(r.cfg.Seconds * float64(time.Second))
	begin := time.Now()
	passes := 1
	for d := pass(true); !r.cfg.Short && time.Since(begin)+d <= budget; passes++ {
		d = pass(true)
	}
	r.endMeasure()

	h := sha256.New()
	for i, in := range insts {
		fmt.Fprintf(h, "%s %s\n", in.label, digests[i])
	}
	r.res.Trees = hex.EncodeToString(h.Sum(nil))
	r.res.Details["passes"] = float64(passes)
	// An instance's operation latency is its fastest timed route. The
	// routes are deterministic, so a slower repeat is the host's doing: a
	// shared host's slow spells, seconds long, only ever add time, and the
	// minimum is the sample they disturbed least. Over ten seeds on the
	// 2-vCPU host measured, the suite's minimums spread a fifth less than
	// its medians.
	var sizes []int
	var scaling [][]float64
	suite := 0.0
	for i, in := range insts {
		if len(opMs[i]) == 0 {
			continue
		}
		m := slices.Min(opMs[i])
		suite += m
		r.ops = append(r.ops, time.Duration(m*float64(time.Millisecond)))
		if in.scaling {
			sizes = append(sizes, in.cfg.NumSinks)
			scaling = append(scaling, coreMs[i])
		}
	}
	r.res.Details["suite_s"] = suite / 1000
	if len(sizes) >= 2 {
		b, lo, hi := scalingExponent(sizes, scaling, rand.New(rand.NewPCG(r.cfg.Seed, 0x626f6f74)))
		r.layer["core.scaling_exponent"] = b
		r.layer["core.scaling_exponent_lo"] = lo
		r.layer["core.scaling_exponent_hi"] = hi
	}
	return nil
}
