package regate

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/activity"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/gating"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/rctree"
	"repro/internal/stream"
	"repro/internal/tech"
	"repro/internal/topology"
)

type fixture struct {
	in   *core.Instance
	opts core.Options
	tree *topology.Tree
}

func routed(t *testing.T, n int, seed uint64, policy gating.Policy) fixture {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 2))
	in := &core.Instance{Die: geom.Rect{X0: 0, Y0: 0, X1: 4000, Y1: 4000}}
	for i := 0; i < n; i++ {
		in.SinkLocs = append(in.SinkLocs, geom.Pt(rng.Float64()*4000, rng.Float64()*4000))
		in.SinkCaps = append(in.SinkCaps, 30+rng.Float64()*90)
	}
	d, err := isa.Generate(isa.GenConfig{NumModules: n, NumInstr: 8, Usage: 0.4, Scatter: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.DefaultMarkov().Generate(d, 1200, rng)
	in.Profile, err = activity.NewProfile(d, s)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{
		Tech: tech.Default(), Method: core.MinSwitchedCap, Drivers: core.GatedTree,
		Policy: policy, Controller: ctrl.Centralized(in.Die),
	}
	tree, _, err := core.Route(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	return fixture{in: in, opts: opts, tree: tree}
}

// rebuild replays f's topology under its own gate set, the step every
// Improve candidate takes with one gate flipped.
func rebuild(t *testing.T, f fixture) *topology.Tree {
	t.Helper()
	opts := f.opts
	opts.Policy = GateSet(f.tree)
	nt, err := core.Replay(f.in, opts, f.tree)
	if err != nil {
		t.Fatal(err)
	}
	return nt
}

// TestRebuildIdentityPreservesSC: rebuilding a routed tree under its own
// gates goes through the router's merge, so it reproduces the exact
// W(T)+W(S), the gate count and zero skew.
func TestRebuildIdentityPreservesSC(t *testing.T) {
	f := routed(t, 40, 3, nil)
	nt := rebuild(t, f)
	orig := power.Evaluate(f.tree, f.opts.Controller, f.opts.Tech)
	got := power.Evaluate(nt, f.opts.Controller, f.opts.Tech)
	if got.TotalSC != orig.TotalSC {
		t.Errorf("identity rebuild SC %v vs original %v", got.TotalSC, orig.TotalSC)
	}
	if got.NumGates != orig.NumGates {
		t.Errorf("gate count changed: %d vs %d", got.NumGates, orig.NumGates)
	}
	if got.SkewPs > 1e-6*(1+got.MaxDelayPs) {
		t.Errorf("rebuild lost zero skew: %v", got.SkewPs)
	}
}

// TestRebuildPreservesTopologyAndActivity: the rebuild keeps every node's
// ID, its place in the pre-order and its enable probabilities P and Ptr.
func TestRebuildPreservesTopologyAndActivity(t *testing.T) {
	f := routed(t, 25, 7, nil)
	nt := rebuild(t, f)
	var orig, got []*topology.Node
	f.tree.Root.PreOrder(func(n *topology.Node) { orig = append(orig, n) })
	nt.Root.PreOrder(func(n *topology.Node) { got = append(got, n) })
	if len(orig) != len(got) {
		t.Fatal("node count changed")
	}
	for i := range orig {
		if orig[i].ID != got[i].ID || orig[i].P != got[i].P || orig[i].Ptr != got[i].Ptr {
			t.Fatalf("node %d: topology or activity not preserved", orig[i].ID)
		}
	}
}

// TestImproveNeverWorsens is the optimizer's contract: the search starts
// from the input tree itself, so InitialSC is the input's exact W(T)+W(S)
// and the final W is at most that.
func TestImproveNeverWorsens(t *testing.T) {
	for _, n := range []int{40, 64, 96, 128, 200} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				f := routed(t, n, seed, nil)
				input := power.Evaluate(f.tree, f.opts.Controller, f.opts.Tech).TotalSC
				res, err := Improve(f.in, f.opts, f.tree, 1)
				if err != nil {
					t.Fatal(err)
				}
				if res.InitialSC != input {
					t.Errorf("InitialSC %v, want the input's W %v", res.InitialSC, input)
				}
				if res.Report.TotalSC > input {
					t.Errorf("optimizer worsened SC: %v from %v", res.Report.TotalSC, input)
				}
				if res.Evals == 0 || res.Passes == 0 {
					t.Error("optimizer did no work")
				}
				// The optimized tree must stay a valid zero-skew tree.
				a := rctree.Analyze(res.Tree, f.opts.Tech)
				if a.Skew > 1e-6*(1+a.MaxDelay) {
					t.Errorf("optimized tree skew %v", a.Skew)
				}
				if err := res.Tree.Validate(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestImproveFindsObviousWin: seed the optimizer with a clearly bad
// assignment (all gates on a low-activity design) and it must strip some.
func TestImproveFindsObviousWin(t *testing.T) {
	f := routed(t, 30, 13, gating.All{})
	before := power.Evaluate(f.tree, f.opts.Controller, f.opts.Tech)
	res, err := Improve(f.in, f.opts, f.tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flips == 0 {
		t.Fatal("optimizer found no improvement over full gating")
	}
	if res.Report.TotalSC >= before.TotalSC {
		t.Errorf("no SC gain: %v vs %v", res.Report.TotalSC, before.TotalSC)
	}
	if res.Report.NumGates >= before.NumGates {
		t.Errorf("expected gates to be stripped: %d vs %d", res.Report.NumGates, before.NumGates)
	}
}
