// Package dme implements the deferred-merge-embedding machinery for exact
// zero-skew clock routing under the Elmore delay model (Tsay, ICCAD'91; the
// merging-sector formulation of Boese/Kahng and Edahiro referenced as [2],
// [3], [6] by the paper), extended with per-edge drivers: the masking gates
// of the gated clock tree shield downstream capacitance and contribute
// intrinsic plus output-resistance delay, exactly as §4.1 of the paper
// requires ("inserting gates reduces the subtree capacitance in the Elmore
// delay computation").
//
// The two phases are
//
//  1. Merge: given two subtrees (their merging segments, downstream delays
//     and capacitances) and the drivers that will sit at the tops of the two
//     new edges, compute the edge lengths that equalize the two branch
//     delays. Because the quadratic wire terms cancel, the balance point is
//     a linear solve; when it falls outside the joining segment, the short
//     branch's wire is elongated (snaked) by solving the quadratic.
//  2. Embed: walk the finished topology top-down, placing every node at the
//     point of its merging segment nearest to its parent's location.
package dme

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/tech"
	"repro/internal/topology"
)

// Branch describes one side of a merge as seen from the prospective parent.
type Branch struct {
	MS     geom.TRR     // merging segment of the subtree root
	Delay  float64      // max Elmore delay from the subtree root to its sinks (ps)
	Spread float64      // max − min sink delay below the root (ps); 0 under zero skew
	Cap    float64      // capacitance looking into the subtree root (fF)
	Driver *tech.Driver // driver at the top of the new edge; nil = plain wire
}

// Merge is the outcome of a (bounded-)zero-skew merge.
type Merge struct {
	MS         geom.TRR // merging segment of the new parent
	LenA, LenB float64  // electrical lengths of the edges to A and B (λ)
	Snaked     bool     // true when one branch needed wire elongation
	Delay      float64  // max Elmore delay from the parent to its sinks (ps)
	Spread     float64  // max − min sink delay below the parent (ps)
	Cap        float64  // capacitance looking into the parent (fF)
}

// branchPoly returns the coefficients of the branch delay polynomial
//
//	t(l) = q·l² + a·l + b
//
// for a wire of length l feeding the branch, where q = r·c/2 is shared by
// all branches, a collects the driver-resistance and wire-resistance load
// terms, and b the constant delay. p is read through a pointer: the merge
// sits on the greedy's pair-cost path, where copying Params shows.
func branchPoly(p *tech.Params, br Branch) (a, b float64) {
	rPs := p.WireResPerLambda * tech.PsPerOhmFF
	c := p.WireCapPerLambda
	if br.Driver != nil {
		a = br.Driver.Rout*tech.PsPerOhmFF*c + rPs*br.Cap
		b = br.Delay + br.Driver.Dint + br.Driver.Rout*tech.PsPerOhmFF*br.Cap
	} else {
		a = rPs * br.Cap
		b = br.Delay
	}
	return a, b
}

// branchCap returns the capacitance the branch presents at the merge point
// when reached through a wire of length l.
func branchCap(p tech.Params, br Branch, l float64) float64 {
	if br.Driver != nil {
		return br.Driver.Cin
	}
	return p.WireCapPerLambda*l + br.Cap
}

// BoundedSkewMerge merges two branches while keeping the merged subtree's
// delay spread (max − min sink delay) within the given budget. The
// max-delays of the two branches are balanced exactly when the tapping
// point falls on the joining segment; when it does not, the faster branch
// is elongated only as far as the budget requires — with budget 0 this is
// exact zero skew, with a positive budget detour wire is saved wherever
// residual skew is affordable (the bounded-skew clock-routing relaxation of
// Cong/Koh applied to the paper's merge primitive).
func BoundedSkewMerge(p tech.Params, a, b Branch, budget float64) (Merge, error) {
	if budget < 0 {
		return Merge{}, errors.New("dme: negative skew budget")
	}
	if a.Spread > budget+1e-9 || b.Spread > budget+1e-9 {
		return Merge{}, fmt.Errorf("dme: branch spread (%v, %v) already exceeds budget %v",
			a.Spread, b.Spread, budget)
	}
	L := a.MS.Dist(b.MS)
	q := p.WireResPerLambda * tech.PsPerOhmFF * p.WireCapPerLambda / 2
	aA, bA := branchPoly(&p, a)
	aB, bB := branchPoly(&p, b)

	var la, lb float64
	snaked := false
	den := 2*q*L + aA + aB
	if den > 0 {
		la = (q*L*L + aB*L + bB - bA) / den
	} else {
		// Degenerate: zero-length joint between zero-cap, driverless
		// branches. Force the snaking paths below to absorb any delay
		// difference through the quadratic wire term.
		if bA >= bB {
			la = -1
		} else {
			la = L + 1
		}
	}
	spread := math.Max(a.Spread, b.Spread)
	switch {
	case la < 0:
		// Branch a is too slow even with a zero-length wire. The fast
		// branch b gets the full joining segment; beyond that, elongate it
		// only until the merged spread fits the budget.
		la = 0
		tSlow := bA // t_a(0)
		delta := tSlow - (q*L*L + aB*L + bB)
		if need := math.Max(a.Spread, delta+b.Spread); need <= budget {
			lb = L
			spread = need
			break
		}
		// Elongate b so that the residual gap Δ' = budget − b.Spread.
		target := tSlow - (budget - b.Spread)
		var err error
		lb, err = elongate(q, aB, bB, target)
		if err != nil {
			return Merge{}, fmt.Errorf("dme: cannot balance branches: %w", err)
		}
		snaked = lb > L
		spread = math.Max(a.Spread, budget)
		if budget == 0 {
			spread = math.Max(a.Spread, b.Spread)
		}
	case la > L:
		// Mirror image: branch b too slow, elongate a as needed.
		lb = 0
		tSlow := q*0 + bB // t_b(0)
		delta := tSlow - (q*L*L + aA*L + bA)
		if need := math.Max(b.Spread, delta+a.Spread); need <= budget {
			la = L
			spread = need
			break
		}
		target := tSlow - (budget - a.Spread)
		var err error
		la, err = elongate(q, aA, bA, target)
		if err != nil {
			return Merge{}, fmt.Errorf("dme: cannot balance branches: %w", err)
		}
		snaked = la > L
		spread = math.Max(b.Spread, budget)
		if budget == 0 {
			spread = math.Max(a.Spread, b.Spread)
		}
	default:
		lb = L - la
	}

	ms, ok := geom.MergeRegion(a.MS, b.MS, la, lb)
	if !ok {
		return Merge{}, fmt.Errorf("dme: empty merge region (la=%v lb=%v dist=%v)", la, lb, L)
	}
	ta := q*la*la + aA*la + bA
	tb := q*lb*lb + aB*lb + bB
	return Merge{
		MS:     ms,
		LenA:   la,
		LenB:   lb,
		Snaked: snaked,
		Delay:  math.Max(ta, tb),
		Spread: spread,
		Cap:    branchCap(p, a, la) + branchCap(p, b, lb),
	}, nil
}

// elongate solves q·l² + a·l + b = target for the smallest non-negative l.
// target must be ≥ b (the branch being elongated is the faster one).
func elongate(q, a, b, target float64) (float64, error) {
	d := target - b
	if d < 0 {
		if d > -1e-9*(1+math.Abs(target)) {
			return 0, nil // numerically equal delays
		}
		return 0, fmt.Errorf("target delay %v below intrinsic branch delay %v", target, b)
	}
	if q == 0 {
		if a == 0 {
			if d == 0 {
				return 0, nil
			}
			return 0, errors.New("zero-impedance branch cannot absorb delay")
		}
		return d / a, nil
	}
	return (-a + math.Sqrt(a*a+4*q*d)) / (2 * q), nil
}

// SkewTolerancePs is the largest |t_a − t_b| a merge is allowed to leave
// behind before Verify reports it; purely numerical slack.
const SkewTolerancePs = 1e-6

// Embed performs the top-down placement phase: the root is placed at the
// point of its merging segment nearest to the tree source, and every other
// node at the point of its segment nearest to its parent's location. The
// root's EdgeLen is set to its Manhattan distance from the source. Edge
// lengths chosen during merging are preserved (embedding can only shorten
// the geometric run, which a physical router makes up with snaking).
func Embed(t *topology.Tree) {
	t.Root.Loc = t.Root.MS.Nearest(t.Source)
	t.Root.EdgeLen = geom.Dist(t.Source, t.Root.Loc)
	t.Root.PreOrder(func(n *topology.Node) {
		if n.Parent != nil {
			n.Loc = n.MS.Nearest(n.Parent.Loc)
		}
	})
}
