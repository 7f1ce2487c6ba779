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

// planeMap is an isometry of the Manhattan plane that carries the square
// die [0, side]² onto a square die of the same side: it keeps every
// Manhattan distance and maps the die's centre (the clock source and the
// centralized controller) onto the image die's centre. The mirrors and the
// swap map the die onto itself; the shifts move it, and the source and
// the controller move with it.
type planeMap struct {
	name string
	f    func(p geom.Point, side float64) geom.Point
}

var planeMaps = []planeMap{
	{"mirror-x", func(p geom.Point, side float64) geom.Point { return geom.Pt(side-p.X, p.Y) }},
	{"mirror-y", func(p geom.Point, side float64) geom.Point { return geom.Pt(p.X, side-p.Y) }},
	{"swap", func(p geom.Point, _ float64) geom.Point { return geom.Pt(p.Y, p.X) }},
	{"shift-4096", shift(4096)},
	{"shift-2^20", shift(1 << 20)},
}

// shift translates by (s, s).
func shift(s float64) func(geom.Point, float64) geom.Point {
	return func(p geom.Point, _ float64) geom.Point { return geom.Pt(p.X+s, p.Y+s) }
}

// TestMetamorphicPlaneSymmetries is an oracle that reaches past the
// quadratic reference greedy: mirroring the sinks in x or y, swapping the
// axes, or translating the whole instance (die, sinks, source and
// controller) changes no pair cost and no gating decision, so each
// transformed route must deliver the same W(T)+W(S) (power.Evaluate) to
// within 1e-12 relative, while its tree, placed differently, must change
// digest. The shifts, by 4096 and by 2^20 in both axes, also move the
// spatial index's grid origin far from zero. It routes r1–r5 gated (every
// edge gated), gated-red and buffered under every map, and a 16,384-sink
// uniform instance gated-red under mirror-x and swap. -short keeps r1–r2
// and skips the 16k instance.
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
		lo, hi := m.f(geom.Pt(d.X0, d.Y0), d.X1), m.f(geom.Pt(d.X1, d.Y1), d.X1)
		img.Die = geom.Rect{X0: min(lo.X, hi.X), Y0: min(lo.Y, hi.Y), X1: max(lo.X, hi.X), Y1: max(lo.Y, hi.Y)}
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
