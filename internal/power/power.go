// Package power evaluates a routed (and possibly gated) clock tree exactly:
// the switched capacitance of the clock tree W(T), of the controller star
// tree W(S), the layout area, and the verified timing.
//
// The evaluator is domain-based, which is what makes partial gating exact:
// every wire, sink load and driver input is charged at the activity of the
// nearest masking gate above it (the source domain, with activity 1, when
// no gate intervenes). For a fully gated tree this reduces to the paper's
// per-edge formula w(e_i) = (c·|e_i| + C_i)·P(EN_i); for a buffered or bare
// tree it reduces to the ungated w(e_i) = c·|e_i| + C_i.
package power

import (
	"repro/internal/ctrl"
	"repro/internal/geom"
	"repro/internal/rctree"
	"repro/internal/tech"
	"repro/internal/topology"
)

// Report is the full evaluation of one routed clock tree.
type Report struct {
	// Switched capacitance (fF per cycle, paper convention: the ½·α·f·V²
	// constants are identical across methods and cancel).
	ClockSC float64 // W(T): clock wires + sink loads + driver inputs
	CtrlSC  float64 // W(S): enable star wires + enable pin loads
	TotalSC float64 // W = W(T) + W(S)

	// The same tree with every enable forced on — the ungated reference the
	// paper's Figure 4 lower bound refers to.
	UngatedSC float64

	// Wiring and devices.
	ClockWirelength float64 // λ, electrical (includes snaking)
	StarWirelength  float64 // λ, total enable star length
	NumGates        int
	NumBuffers      int
	NumSinks        int

	// Area (λ²).
	ClockWireArea float64
	StarWireArea  float64
	DriverArea    float64
	TotalArea     float64

	// Timing, re-derived by the independent Elmore analyzer.
	MaxDelayPs float64
	SkewPs     float64
}

// GateReduction returns the fraction of potential gate sites (every edge of
// the tree, 2N−1 of them) left ungated — the x-axis of Figure 5.
func (r Report) GateReduction() float64 {
	sites := 2*r.NumSinks - 1
	if sites <= 0 {
		return 0
	}
	return 1 - float64(r.NumGates)/float64(sites)
}

// Evaluate computes the full report for a routed tree. c supplies the
// controller configuration for the enable star; it may be nil when the tree
// has no masking gates (the star terms are then zero).
func Evaluate(t *topology.Tree, c *ctrl.Controller, p tech.Params) Report {
	r := Report{NumSinks: t.NumSinks()}
	r.ClockSC = switchedCap(t, p, false)
	r.UngatedSC = switchedCap(t, p, true)
	r.ClockWirelength = t.Wirelength()

	t.Root.PreOrder(func(n *topology.Node) {
		if n.Driver == nil {
			return
		}
		r.DriverArea += n.Driver.Area
		if !n.Gated() {
			r.NumBuffers++
			return
		}
		r.NumGates++
		star := c.StarDist(gateLocation(t, n))
		r.StarWirelength += star
		r.CtrlSC += (p.CtrlWireCap(star) + n.Driver.Cin) * n.Ptr
	})

	r.TotalSC = r.ClockSC + r.CtrlSC
	r.ClockWireArea = r.ClockWirelength * p.WirePitch
	r.StarWireArea = r.StarWirelength * p.CtrlPitch
	r.TotalArea = r.ClockWireArea + r.StarWireArea + r.DriverArea

	a := rctree.Analyze(t, p)
	r.MaxDelayPs = a.MaxDelay
	r.SkewPs = a.Skew
	return r
}

// gateLocation returns where the gate on the edge owned by n physically
// sits: immediately after the node above it (the source, for the root
// edge), per §2 "gates immediately after every internal node".
func gateLocation(t *topology.Tree, n *topology.Node) geom.Point {
	if n.Parent != nil {
		return n.Parent.Loc
	}
	return t.Source
}

// switchedCap walks the tree charging every capacitance at its gating
// domain's activity. forceOn evaluates the hypothetical ungated tree
// (every enable stuck at 1).
func switchedCap(t *topology.Tree, p tech.Params, forceOn bool) float64 {
	total := 0.0
	var walk func(n *topology.Node, domP float64)
	walk = func(n *topology.Node, domP float64) {
		if n.Driver != nil {
			// The driver's input pin hangs on the upstream domain.
			total += n.Driver.Cin * domP
			if n.Gated() && !forceOn {
				domP = n.P
			}
		}
		total += p.WireCap(n.EdgeLen) * domP
		if n.IsSink() {
			total += n.LoadCap * domP
			return
		}
		walk(n.Left, domP)
		walk(n.Right, domP)
	}
	walk(t.Root, 1)
	return total
}
