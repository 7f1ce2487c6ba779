package power

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/dme"
	"repro/internal/geom"
	"repro/internal/tech"
	"repro/internal/topology"
)

// randomTree builds a valid zero-skew tree over n random sinks with random
// activities, pairing sinks in index order.
func randomTree(t *testing.T, p tech.Params, n int, rng *rand.Rand) *topology.Tree {
	t.Helper()
	var nodes []*topology.Node
	for i := 0; i < n; i++ {
		s := topology.NewSink(i, i, geom.Pt(rng.Float64()*4000, rng.Float64()*4000), 10+rng.Float64()*80)
		s.P = 0.1 + rng.Float64()*0.8
		s.Ptr = rng.Float64() * 2 * math.Min(s.P, 1-s.P)
		nodes = append(nodes, s)
	}
	id := n
	for len(nodes) > 1 {
		var next []*topology.Node
		for i := 0; i+1 < len(nodes); i += 2 {
			a, b := nodes[i], nodes[i+1]
			m, err := dme.BoundedSkewMerge(p,
				dme.Branch{MS: a.MS, Delay: a.Delay, Cap: a.Cap},
				dme.Branch{MS: b.MS, Delay: b.Delay, Cap: b.Cap}, 0)
			if err != nil {
				t.Fatal(err)
			}
			k := &topology.Node{ID: id, SinkIndex: -1, Left: a, Right: b,
				MS: m.MS, Delay: m.Delay, Cap: m.Cap}
			// Parent enable = OR of children: P at least the max.
			k.P = math.Min(1, math.Max(a.P, b.P)+rng.Float64()*(1-math.Max(a.P, b.P)))
			k.Ptr = rng.Float64() * 2 * math.Min(k.P, 1-k.P)
			id++
			a.Parent, b.Parent = k, k
			a.EdgeLen, b.EdgeLen = m.LenA, m.LenB
			next = append(next, k)
		}
		if len(nodes)%2 == 1 {
			next = append(next, nodes[len(nodes)-1])
		}
		nodes = next
	}
	tr := &topology.Tree{Root: nodes[0], Source: geom.Pt(2000, 2000)}
	dme.Embed(tr)
	return tr
}

// TestRandomGatingBounds: for any random gate subset, the gated clock SC
// must lie between minP·ungated and ungated, and the report must be
// internally consistent.
func TestRandomGatingBounds(t *testing.T) {
	p := tech.Default()
	c := ctrl.Centralized(geom.Rect{X0: 0, Y0: 0, X1: 4000, Y1: 4000})
	rng := rand.New(rand.NewPCG(21, 42))
	for trial := 0; trial < 60; trial++ {
		tr := randomTree(t, p, 4+rng.IntN(40), rng)
		minP := 1.0
		tr.Root.PreOrder(func(n *topology.Node) {
			if rng.Float64() < 0.4 {
				n.SetDriver(&p.Gate, true)
				if n.P < minP {
					minP = n.P
				}
			}
		})
		r := Evaluate(tr, c, p)
		if r.ClockSC > r.UngatedSC+1e-9 {
			t.Fatalf("gated SC %v above ungated %v", r.ClockSC, r.UngatedSC)
		}
		if r.ClockSC < minP*r.UngatedSC-1e-9 {
			t.Fatalf("gated SC %v below minP bound %v", r.ClockSC, minP*r.UngatedSC)
		}
		if math.Abs(r.TotalSC-(r.ClockSC+r.CtrlSC)) > 1e-9 {
			t.Fatal("TotalSC inconsistent")
		}
		if r.CtrlSC < 0 || r.StarWirelength < 0 {
			t.Fatal("negative controller quantities")
		}
		if got := r.GateReduction(); got < 0 || got > 1 {
			t.Fatalf("GateReduction %v out of range", got)
		}
	}
}

// TestMoreGatesNeverRaiseClockSC: adding a gate can only lower (or keep)
// the clock-tree switched capacitance, since every gate masks its domain
// at P ≤ 1 — the monotonicity behind the Figure 5 trade-off.
func TestMoreGatesNeverRaiseClockSC(t *testing.T) {
	p := tech.Default()
	c := ctrl.Centralized(geom.Rect{X0: 0, Y0: 0, X1: 4000, Y1: 4000})
	rng := rand.New(rand.NewPCG(5, 8))
	for trial := 0; trial < 40; trial++ {
		tr := randomTree(t, p, 4+rng.IntN(30), rng)
		// Gates mask with P; the driver input cap itself adds to SC, so
		// compare pure wire+load masking with zero-Cin gates.
		g := p.Gate
		g.Cin = 0
		var ungated []*topology.Node
		tr.Root.PreOrder(func(n *topology.Node) { ungated = append(ungated, n) })
		prev := Evaluate(tr, c, p).ClockSC
		for _, n := range ungated {
			if rng.Float64() < 0.3 {
				n.SetDriver(&g, true)
				cur := Evaluate(tr, c, p).ClockSC
				if cur > prev+1e-9 {
					t.Fatalf("adding a zero-Cin gate raised clock SC: %v → %v", prev, cur)
				}
				prev = cur
			}
		}
	}
}
