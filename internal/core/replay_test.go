package core

import (
	"errors"
	"testing"

	"repro/internal/bench"
	"repro/internal/ctrl"
	"repro/internal/gating"
	"repro/internal/power"
	"repro/internal/rctree"
	"repro/internal/tech"
	"repro/internal/topology"
)

// ownGates is the Fixed assignment of the gates tr already carries.
func ownGates(tr *topology.Tree) gating.Fixed {
	gates := gating.Fixed{}
	tr.Root.PreOrder(func(n *topology.Node) {
		if n.Gated() {
			gates[n.ID] = true
		}
	})
	return gates
}

// TestReplayIdentity: replaying a routed tree's topology under the Fixed
// set of its own gates, and under the route's own policy, reproduces the
// tree bit for bit. The digest covers node IDs, shape, embedding,
// electricals, P, Ptr and drivers, so buffers, sizing, the skew budget and
// the root driver must all follow the router's rules.
func TestReplayIdentity(t *testing.T) {
	p := tech.Default()
	modes := []struct {
		name string
		opts Options
	}{
		{"gated", Options{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, Policy: gating.All{}}},
		{"gated-red", Options{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree}},
		{"gated-red/sized", Options{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, SizeDrivers: true}},
		{"gated-red/skew25", Options{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, SkewBoundPs: 25}},
		{"gated/sized+skew25", Options{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree,
			Policy: gating.All{}, SizeDrivers: true, SkewBoundPs: 25}},
		{"buffered", Options{Tech: p, Method: NearestNeighbor, Drivers: BufferedTree}},
		{"bare", Options{Tech: p, Method: NearestNeighbor, Drivers: BareTree}},
	}
	names := bench.StandardNames()
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		in := goldenInstance(t, name)
		for _, m := range modes {
			t.Run(name+"/"+m.name, func(t *testing.T) {
				tree, _, err := Route(in, m.opts)
				if err != nil {
					t.Fatal(err)
				}
				fixed := m.opts
				fixed.Policy = ownGates(tree)
				for _, opts := range []Options{fixed, m.opts} {
					got, err := Replay(in, opts, tree)
					if err != nil {
						t.Fatal(err)
					}
					if got.Digest() != tree.Digest() {
						t.Fatalf("policy %T: replay digest differs from the routed tree", opts.Policy)
					}
				}
			})
		}
	}
}

// TestReplayUngateAll: replaying a fully gated tree under an empty Fixed
// set strips every gate and keeps zero skew.
func TestReplayUngateAll(t *testing.T) {
	in := makeInstance(t, 30, 5)
	opts := Options{Tech: tech.Default(), Method: MinSwitchedCap, Drivers: GatedTree, Policy: gating.All{}}
	tree, _, err := Route(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Policy = gating.Fixed{}
	nt, err := Replay(in, opts, tree)
	if err != nil {
		t.Fatal(err)
	}
	rep := power.Evaluate(nt, ctrl.Centralized(in.Die), opts.Tech)
	if rep.NumGates != 0 {
		t.Errorf("%d gates left after ungating", rep.NumGates)
	}
	if rep.CtrlSC != 0 {
		t.Error("ungated tree must have no controller SC")
	}
	a := rctree.Analyze(nt, opts.Tech)
	if a.Skew > 1e-6*(1+a.MaxDelay) {
		t.Errorf("skew %v after full ungating", a.Skew)
	}
}

// TestReplayRejectsBadTopology: a topology that is not a full binary tree
// over exactly the instance's sinks, each once, fails with ErrInvalidInput
// instead of indexing past the sinks.
func TestReplayRejectsBadTopology(t *testing.T) {
	in := makeInstance(t, 6, 3)
	fewer := *in
	fewer.SinkLocs, fewer.SinkCaps = in.SinkLocs[:5], in.SinkCaps[:5]
	opts := Options{Tech: tech.Default(), Method: MinSwitchedCap, Drivers: GatedTree}
	cases := []struct {
		name   string
		in     *Instance
		mutate func(*topology.Tree)
	}{
		{"out of range", &fewer, nil},
		{"missing", makeInstance(t, 7, 3), nil},
		{"repeated", in, func(tr *topology.Tree) {
			leaves := tr.Root.Sinks()
			leaves[0].SinkIndex = leaves[1].SinkIndex
		}},
		{"empty", in, func(tr *topology.Tree) { tr.Root = nil }},
	}
	for _, c := range cases {
		tree, _, err := Route(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if c.mutate != nil {
			c.mutate(tree)
		}
		if _, err := Replay(c.in, opts, tree); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: got %v, want ErrInvalidInput", c.name, err)
		}
	}
}
