package core

import (
	"math"
	"testing"

	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/ctrl"
	"repro/internal/gating"
	"repro/internal/geom"
	"repro/internal/power"
	"repro/internal/tech"
	"repro/internal/topology"
)

// planeMap is a symmetry of the square die [0, side]²: it maps the die,
// its centre (the clock source and the centralized controller) and every
// Manhattan distance onto themselves.
type planeMap struct {
	name string
	f    func(p geom.Point, side float64) geom.Point
}

var planeMaps = []planeMap{
	{"mirror-x", func(p geom.Point, side float64) geom.Point { return geom.Pt(side-p.X, p.Y) }},
	{"mirror-y", func(p geom.Point, side float64) geom.Point { return geom.Pt(p.X, side-p.Y) }},
	{"swap", func(p geom.Point, _ float64) geom.Point { return geom.Pt(p.Y, p.X) }},
}

// TestMetamorphicPlaneSymmetries is an oracle that reaches past the
// quadratic reference greedy: mirroring the sinks in x or y, or swapping
// the axes, changes no pair cost and no gating decision, so each
// transformed route must deliver the same W(T)+W(S) (power.Evaluate) to
// within 1e-12 relative, while its tree, placed differently, must change
// digest. It routes r1–r5 gated (every edge gated), gated-red and
// buffered, and a 16,384-sink uniform instance gated-red under mirror-x
// and swap. -short keeps r1–r2 and skips the 16k instance.
func TestMetamorphicPlaneSymmetries(t *testing.T) {
	p := tech.Default()
	modes := []struct {
		name string
		opts Options
	}{
		{"gated", Options{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, Policy: gating.All{}}},
		{"gated-red", Options{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree}},
		{"buffered", Options{Tech: p, Method: NearestNeighbor, Drivers: BufferedTree}},
	}
	names := bench.StandardNames()
	if testing.Short() {
		names = names[:2]
	}
	worst := 0.0
	for _, name := range names {
		in := goldenInstance(t, name)
		for _, m := range modes {
			worst = max(worst, checkPlaneMaps(t, name+"/"+m.name, in, m.opts, planeMaps))
		}
	}
	t.Logf("r1–r%d: worst relative W(T)+W(S) change %.3g", len(names), worst)
	if testing.Short() {
		return
	}
	b, err := bench.Generate(bench.Config{Name: "uniform-16k", NumSinks: 16384, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := activity.NewProfile(b.ISA, b.Stream)
	if err != nil {
		t.Fatal(err)
	}
	in := &Instance{Die: b.Die, SinkLocs: b.SinkLocs, SinkCaps: b.SinkCaps, Profile: prof}
	worst = checkPlaneMaps(t, "uniform-16k/gated-red", in, modes[1].opts,
		[]planeMap{planeMaps[0], planeMaps[2]})
	t.Logf("uniform-16k: worst relative W(T)+W(S) change %.3g", worst)
}

// checkPlaneMaps routes in under opts, then each map's image of in, and
// returns the largest relative change of W(T)+W(S) it saw.
func checkPlaneMaps(t *testing.T, label string, in *Instance, opts Options, maps []planeMap) float64 {
	t.Helper()
	d := in.Die
	if d.X0 != 0 || d.Y0 != 0 || d.X1 != d.Y1 {
		t.Fatalf("%s: die %+v is not [0, side]²", label, d)
	}
	route := func(in *Instance) (*topology.Tree, float64) {
		t.Helper()
		tree, _, err := Route(in, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		rep := power.Evaluate(tree, ctrl.Centralized(in.Die), opts.Tech)
		return tree, rep.ClockSC + rep.CtrlSC
	}
	base, w0 := route(in)
	worst := 0.0
	for _, m := range maps {
		img := *in
		img.SinkLocs = make([]geom.Point, len(in.SinkLocs))
		for i, p := range in.SinkLocs {
			img.SinkLocs[i] = m.f(p, d.X1)
		}
		tree, w := route(&img)
		rel := math.Abs(w-w0) / w0
		worst = max(worst, rel)
		if rel > 1e-12 {
			t.Errorf("%s %s: W(T)+W(S) %v, untransformed %v: relative change %.3g",
				label, m.name, w, w0, rel)
		}
		if tree.Digest() == base.Digest() {
			t.Errorf("%s %s: digest unchanged by the transform", label, m.name)
		}
	}
	return worst
}
