// Package verify is the independent post-construction checker of the
// routing pipeline. It re-derives, from nothing but the embedded tree (edge
// lengths, drivers, loads) and the technology parameters, every property the
// construction is supposed to guarantee:
//
//   - tree well-formedness: full binary shape, consistent parent links,
//     distinct sinks, finite non-negative edge lengths, each node embedded
//     on its merging segment, and electrical edge length at least the
//     geometric parent distance (snaking is non-negative);
//   - the paper's zero-skew Elmore constraint (Tsay merging, Eq. 1–3):
//     source-to-sink Elmore delays recomputed from first principles must
//     agree within tolerance (or within Options.SkewBoundPs when the
//     bounded-skew relaxation is in use);
//   - electrical bookkeeping: the merge-time subtree capacitance (Node.Cap)
//     and the domain-attached capacitance (Node.AttachCap) must equal the
//     values recomputed bottom-up;
//   - activity sanity: P(EN) and Ptr(EN) within [0, 1], P monotone
//     non-decreasing up the tree (a parent's instruction set contains its
//     children's), and Ptr ≤ 2·min(P, 1−P) up to sampling slack;
//   - power accounting: W(T) and W(S) recomputed from scratch by an
//     independent domain walk must match the evaluated power.Report, and
//     W = W(T) + W(S).
//
// Deliberately none of the construction-time bookkeeping (merge results,
// pair-cost memo, spatial index) is consulted: the verifier would accept
// or reject the same trees if the router were rewritten from the paper's
// pseudocode. Every failure wraps ErrInvariant and is reported as a
// *Violation carrying the failed check and the offending node.
package verify

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ctrl"
	"repro/internal/geom"
	"repro/internal/power"
	"repro/internal/tech"
	"repro/internal/topology"
)

// ErrInvariant is wrapped by every verification failure, so callers can
// classify them with errors.Is.
var ErrInvariant = errors.New("verify: invariant violated")

// Violation describes one failed invariant. It wraps ErrInvariant and is
// recoverable with errors.As.
type Violation struct {
	Check  string // which invariant failed ("skew", "topology", "activity", ...)
	Node   int    // ID of the offending node; −1 when the violation is global
	Detail string
}

func (v *Violation) Error() string {
	if v.Node < 0 {
		return fmt.Sprintf("verify: %s: %s", v.Check, v.Detail)
	}
	return fmt.Sprintf("verify: %s: node %d: %s", v.Check, v.Node, v.Detail)
}

func (v *Violation) Unwrap() error { return ErrInvariant }

func violationf(check string, node int, format string, args ...any) error {
	return &Violation{Check: check, Node: node, Detail: fmt.Sprintf(format, args...)}
}

// Tolerances. Geometry and skew tolerances are absolute (λ and ps —
// quantities the construction rounds at far smaller scales); electrical and
// power cross-checks are relative, since capacitances span orders of
// magnitude between r1 and r5.
const (
	// SkewTolPs scales the numerical slack allowed on the recomputed skew
	// beyond the configured bound: SkewTolPs·(1 + max delay), matching the
	// repo-wide skew assertions.
	SkewTolPs = 1e-6
	// GeomTol is the absolute slack (λ) for on-segment and edge-length
	// checks, matching the embedding checker's rounding allowance.
	GeomTol = 1e-6
	// RelTol is the relative slack for recomputed capacitances and power.
	RelTol = 1e-9
	// ActivitySlack absorbs the B/(B−1) sampling factor in the
	// Ptr ≤ 2·min(P, 1−P) bound for finite streams.
	ActivitySlack = 1e-2
)

// Tree checks well-formedness, the (bounded-)zero-skew constraint and
// activity sanity of a routed tree. skewBoundPs is the skew budget the tree
// was routed under (0 = exact zero skew). The first violation found is
// returned; nil means every invariant holds.
func Tree(t *topology.Tree, p tech.Params, skewBoundPs float64) (err error) {
	defer func() {
		i := instruments()
		i.treeChecks.Inc()
		if err != nil {
			i.failures.Inc()
		}
	}()
	if t == nil || t.Root == nil {
		return violationf("topology", -1, "nil tree")
	}
	if err := checkShape(t); err != nil {
		return err
	}
	if err := checkEmbedding(t); err != nil {
		return err
	}
	if err := checkElectrical(t, p); err != nil {
		return err
	}
	if err := checkSkew(t, p, skewBoundPs); err != nil {
		return err
	}
	return checkActivity(t.Root)
}

// checkShape validates the structural invariants: full binary shape,
// consistent parent links, exactly one distinct sink per leaf, finite
// non-negative edge lengths.
func checkShape(t *topology.Tree) error {
	seen := map[int]bool{}
	var err error
	t.Root.PreOrder(func(n *topology.Node) {
		switch {
		case err != nil:
		case (n.Left == nil) != (n.Right == nil):
			err = violationf("topology", n.ID, "exactly one child (not full binary)")
		case n.Left != nil && (n.Left.Parent != n || n.Right.Parent != n):
			err = violationf("topology", n.ID, "inconsistent parent links")
		case n.IsSink() && n.SinkIndex < 0:
			err = violationf("topology", n.ID, "leaf without sink index")
		case !n.IsSink() && n.SinkIndex >= 0:
			err = violationf("topology", n.ID, "internal node claims sink %d", n.SinkIndex)
		case n.IsSink() && seen[n.SinkIndex]:
			err = violationf("topology", n.ID, "sink %d appears twice", n.SinkIndex)
		case math.IsNaN(n.EdgeLen) || math.IsInf(n.EdgeLen, 0) || n.EdgeLen < 0:
			err = violationf("topology", n.ID, "bad edge length %v", n.EdgeLen)
		}
		if n.IsSink() {
			seen[n.SinkIndex] = true
		}
	})
	return err
}

// checkEmbedding validates the geometry: every node sits on its merging
// segment, and the electrical edge length is at least the Manhattan
// distance to the parent (the physical wire can snake, never tunnel).
func checkEmbedding(t *topology.Tree) error {
	var err error
	t.Root.PreOrder(func(n *topology.Node) {
		if err != nil {
			return
		}
		if !n.MS.Contains(n.Loc, GeomTol) {
			err = violationf("geometry", n.ID, "embedded at %v off its merging segment %v", n.Loc, n.MS)
			return
		}
		from := t.Source
		if n.Parent != nil {
			from = n.Parent.Loc
		}
		if d := geom.Dist(n.Loc, from); n.EdgeLen < d-GeomTol {
			err = violationf("geometry", n.ID,
				"edge length %v below Manhattan distance %v to parent (negative snaking)", n.EdgeLen, d)
		}
	})
	return err
}

// checkElectrical recomputes, bottom-up from loads, drivers and edge
// lengths alone, the subtree capacitance each node presents (Node.Cap) and
// the domain-attached capacitance (Node.AttachCap), and compares both with
// the values the construction recorded.
func checkElectrical(t *topology.Tree, p tech.Params) error {
	var err error
	var walk func(n *topology.Node) (cap, attach float64)
	walk = func(n *topology.Node) (float64, float64) {
		if err != nil {
			return 0, 0
		}
		if n.IsSink() {
			if n.LoadCap < 0 || math.IsNaN(n.LoadCap) || math.IsInf(n.LoadCap, 0) {
				err = violationf("electrical", n.ID, "bad sink load %v", n.LoadCap)
				return 0, 0
			}
			if !closeRel(n.Cap, n.LoadCap) {
				err = violationf("electrical", n.ID, "sink Cap %v != load %v", n.Cap, n.LoadCap)
			}
			return n.LoadCap, n.LoadCap
		}
		lCap, lAttach := walk(n.Left)
		rCap, rAttach := walk(n.Right)
		if err != nil {
			return 0, 0
		}
		edge := func(c *topology.Node, downCap, downAttach float64) (float64, float64) {
			if c.Driver != nil {
				return c.Driver.Cin, c.Driver.Cin
			}
			wire := p.WireCap(c.EdgeLen)
			return wire + downCap, wire + downAttach
		}
		lc, la := edge(n.Left, lCap, lAttach)
		rc, ra := edge(n.Right, rCap, rAttach)
		if !closeRel(n.Cap, lc+rc) {
			err = violationf("electrical", n.ID, "Cap %v, recomputed %v", n.Cap, lc+rc)
		} else if !closeRel(n.AttachCap, la+ra) {
			err = violationf("electrical", n.ID, "AttachCap %v, recomputed %v", n.AttachCap, la+ra)
		}
		return lc + rc, la + ra
	}
	walk(t.Root)
	return err
}

// checkSkew re-derives every source-to-sink Elmore delay from first
// principles and asserts the spread stays within the configured bound.
func checkSkew(t *topology.Tree, p tech.Params, skewBoundPs float64) error {
	delays := elmoreDelays(t, p)
	minD, maxD := math.Inf(1), math.Inf(-1)
	for sink, d := range delays {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return violationf("skew", -1, "sink %d has non-finite Elmore delay %v", sink, d)
		}
		minD = math.Min(minD, d)
		maxD = math.Max(maxD, d)
	}
	if skew := maxD - minD; skew > skewBoundPs+SkewTolPs*(1+maxD) {
		return violationf("skew", -1, "skew %v ps exceeds bound %v ps (tolerance %v)",
			skew, skewBoundPs, SkewTolPs*(1+maxD))
	}
	return nil
}

// elmoreDelays recomputes the Elmore delay from the tree source to every
// sink: per edge, an optional shielding driver (Dint + Rout·load), then the
// distributed RC wire of the edge's electrical length.
func elmoreDelays(t *topology.Tree, p tech.Params) map[int]float64 {
	caps := map[*topology.Node]float64{}
	var capOf func(n *topology.Node) float64
	capOf = func(n *topology.Node) float64 {
		if c, ok := caps[n]; ok {
			return c
		}
		c := n.LoadCap
		if !n.IsSink() {
			c = edgeCapOf(n.Left, p, capOf) + edgeCapOf(n.Right, p, capOf)
		}
		caps[n] = c
		return c
	}
	delays := make(map[int]float64)
	var down func(n *topology.Node, t0 float64)
	down = func(n *topology.Node, t0 float64) {
		load := capOf(n)
		if n.Driver != nil {
			t0 += n.Driver.Delay(p.WireCap(n.EdgeLen) + load)
		}
		t0 += p.WireDelay(n.EdgeLen, load)
		if n.IsSink() {
			delays[n.SinkIndex] = t0
			return
		}
		down(n.Left, t0)
		down(n.Right, t0)
	}
	down(t.Root, 0)
	return delays
}

func edgeCapOf(n *topology.Node, p tech.Params, capOf func(*topology.Node) float64) float64 {
	if n.Driver != nil {
		return n.Driver.Cin
	}
	return p.WireCap(n.EdgeLen) + capOf(n)
}

// checkActivity validates the enable-signal statistics on every node:
// probabilities in range, P monotone non-decreasing from child to parent
// (EN_parent = EN_left ∨ EN_right), and the transition probability within
// the combinatorial bound Ptr ≤ 2·min(P, 1−P) plus sampling slack.
func checkActivity(root *topology.Node) error {
	var err error
	root.PreOrder(func(n *topology.Node) {
		switch {
		case err != nil:
		case math.IsNaN(n.P) || n.P < 0 || n.P > 1+RelTol:
			err = violationf("activity", n.ID, "P(EN) = %v outside [0, 1]", n.P)
		case math.IsNaN(n.Ptr) || n.Ptr < -RelTol || n.Ptr > 1+RelTol:
			err = violationf("activity", n.ID, "Ptr(EN) = %v outside [0, 1]", n.Ptr)
		case n.Ptr > 2*math.Min(n.P, 1-n.P)+ActivitySlack:
			err = violationf("activity", n.ID, "Ptr %v exceeds 2·min(P, 1−P) bound for P %v", n.Ptr, n.P)
		case n.Parent != nil && n.Parent.P < n.P-RelTol:
			err = violationf("activity", n.ID,
				"P %v exceeds parent's %v (union of enables cannot shrink)", n.P, n.Parent.P)
		}
	})
	return err
}

// Report cross-checks an evaluated power.Report against switched
// capacitances recomputed from scratch: an independent domain walk for
// W(T), an independent star walk for W(S), and the W = W(T) + W(S) sum.
// Device and sink counts are re-tallied as well.
func Report(t *topology.Tree, c *ctrl.Controller, p tech.Params, rep power.Report) (err error) {
	defer func() {
		i := instruments()
		i.reportChecks.Inc()
		if err != nil {
			i.failures.Inc()
		}
	}()
	clock := domainSC(t, p)
	if !closeRel(rep.ClockSC, clock) {
		return violationf("power", -1, "W(T) reported %v, recomputed %v", rep.ClockSC, clock)
	}
	star, gates, buffers := starSC(t, c, p)
	if !closeRel(rep.CtrlSC, star) {
		return violationf("power", -1, "W(S) reported %v, recomputed %v", rep.CtrlSC, star)
	}
	if !closeRel(rep.TotalSC, clock+star) {
		return violationf("power", -1, "W reported %v != W(T)+W(S) = %v", rep.TotalSC, clock+star)
	}
	if rep.NumGates != gates || rep.NumBuffers != buffers {
		return violationf("power", -1, "device counts reported %d gates/%d buffers, recounted %d/%d",
			rep.NumGates, rep.NumBuffers, gates, buffers)
	}
	if sinks := len(t.Root.Sinks()); rep.NumSinks != sinks {
		return violationf("power", -1, "reported %d sinks, tree has %d", rep.NumSinks, sinks)
	}
	return nil
}

// domainSC recomputes W(T): every wire, sink load and driver input charged
// at the signal probability of the nearest masking gate above it.
func domainSC(t *topology.Tree, p tech.Params) float64 {
	total := 0.0
	var walk func(n *topology.Node, domP float64)
	walk = func(n *topology.Node, domP float64) {
		if n.Driver != nil {
			total += n.Driver.Cin * domP
			if n.Gated() {
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

// starSC recomputes W(S): for every masking gate, the enable net from its
// serving controller (the gate sits immediately after the node above it)
// plus the gate's enable pin, charged at the enable transition probability.
func starSC(t *topology.Tree, c *ctrl.Controller, p tech.Params) (sc float64, gates, buffers int) {
	t.Root.PreOrder(func(n *topology.Node) {
		if n.Driver == nil {
			return
		}
		if !n.Gated() {
			buffers++
			return
		}
		gates++
		at := t.Source
		if n.Parent != nil {
			at = n.Parent.Loc
		}
		sc += (p.CtrlWireCap(c.StarDist(at)) + n.Driver.Cin) * n.Ptr
	})
	return sc, gates, buffers
}

// closeRel reports whether a and b agree within RelTol relative tolerance
// (absolute below 1). NaN never agrees.
func closeRel(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= RelTol*scale
}
