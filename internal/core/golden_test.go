package core

import (
	"testing"

	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/ctrl"
	"repro/internal/power"
	"repro/internal/tech"
	"repro/internal/topology"
)

// The golden equivalence suite: the fast greedy (memo + heap + pruning +
// word-parallel activity kernels) must reproduce the reference greedy
// (routeOracle, oracle_test.go) bit-for-bit — same topology, same
// embedding, same W(T) and W(S) — on the paper's r1–r5 benchmarks.

func goldenInstance(t *testing.T, name string) *Instance {
	t.Helper()
	cfg, err := bench.Standard(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := activity.NewProfile(b.ISA, b.Stream)
	if err != nil {
		t.Fatal(err)
	}
	return &Instance{
		Die:      b.Die,
		SinkLocs: b.SinkLocs,
		SinkCaps: b.SinkCaps,
		Profile:  prof,
	}
}

// requireIdenticalTrees asserts bitwise equality of every routed quantity:
// structure, sink assignment, drivers and gating, edge lengths, embedded
// locations, delays, capacitances and activity values.
func requireIdenticalTrees(t *testing.T, label string, want, got *topology.Tree) {
	t.Helper()
	var walk func(w, g *topology.Node)
	walk = func(w, g *topology.Node) {
		if t.Failed() {
			return
		}
		if (w == nil) != (g == nil) {
			t.Fatalf("%s: topology shape diverges (ref %v, fast %v)", label, w, g)
		}
		if w == nil {
			return
		}
		if w.ID != g.ID || w.SinkIndex != g.SinkIndex {
			t.Fatalf("%s: node identity diverges: ref (id %d, sink %d) vs fast (id %d, sink %d)",
				label, w.ID, w.SinkIndex, g.ID, g.SinkIndex)
		}
		if w.EdgeLen != g.EdgeLen {
			t.Fatalf("%s: node %d edge length %v vs %v", label, w.ID, w.EdgeLen, g.EdgeLen)
		}
		if w.Loc != g.Loc {
			t.Fatalf("%s: node %d embedded at %v vs %v", label, w.ID, w.Loc, g.Loc)
		}
		if w.Delay != g.Delay || w.Cap != g.Cap || w.AttachCap != g.AttachCap {
			t.Fatalf("%s: node %d electricals diverge", label, w.ID)
		}
		if w.P != g.P || w.Ptr != g.Ptr {
			t.Fatalf("%s: node %d activity (%v, %v) vs (%v, %v)",
				label, w.ID, w.P, w.Ptr, g.P, g.Ptr)
		}
		if w.Gated() != g.Gated() {
			t.Fatalf("%s: node %d gating diverges", label, w.ID)
		}
		switch {
		case (w.Driver == nil) != (g.Driver == nil):
			t.Fatalf("%s: node %d driver presence diverges", label, w.ID)
		case w.Driver != nil && *w.Driver != *g.Driver:
			t.Fatalf("%s: node %d driver %+v vs %+v", label, w.ID, *w.Driver, *g.Driver)
		}
		walk(w.Left, g.Left)
		walk(w.Right, g.Right)
	}
	walk(want.Root, got.Root)
}

func TestGoldenFastPathMatchesReference(t *testing.T) {
	names := bench.StandardNames()
	if testing.Short() {
		names = names[:2] // r1, r2; the large benchmarks take tens of seconds
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			in := goldenInstance(t, name)
			// Verify runs the independent checker on both paths' trees.
			opts := Options{Tech: tech.Default(), Method: MinSwitchedCap, Drivers: GatedTree,
				Verify: true}

			refTree, refStats := routeOracle(t, in, opts)
			fastTree, fastStats, err := Route(in, opts)
			if err != nil {
				t.Fatal(err)
			}

			requireIdenticalTrees(t, name, refTree, fastTree)

			// W(T) and W(S) must match exactly, not approximately.
			ctl := ctrl.Centralized(in.Die)
			refRep := power.Evaluate(refTree, ctl, opts.Tech)
			fastRep := power.Evaluate(fastTree, ctl, opts.Tech)
			if refRep.ClockSC != fastRep.ClockSC {
				t.Errorf("%s: W(T) %v vs %v", name, refRep.ClockSC, fastRep.ClockSC)
			}
			if refRep.CtrlSC != fastRep.CtrlSC {
				t.Errorf("%s: W(S) %v vs %v", name, refRep.CtrlSC, fastRep.CtrlSC)
			}
			if refRep.ClockWirelength != fastRep.ClockWirelength {
				t.Errorf("%s: wirelength %v vs %v", name,
					refRep.ClockWirelength, fastRep.ClockWirelength)
			}

			if fastStats.PairEvals >= refStats.PairEvals {
				t.Errorf("%s: fast path evaluated %d pairs, reference %d — no savings",
					name, fastStats.PairEvals, refStats.PairEvals)
			}
			if fastStats.PairEvalsSkipped == 0 && fastStats.PairEvalsCached == 0 {
				t.Errorf("%s: fast path neither pruned nor cached", name)
			}
		})
	}
}
