// Package gating implements the gate-insertion policies of the paper: full
// gating (a masking gate on every edge, §2), and the gate-reduction
// heuristic of §4.3 with its three removal rules and the forced-insertion
// rule that bounds unshielded subtree capacitance.
package gating

import (
	"errors"
	"fmt"
)

// EdgeInfo describes a prospective gated edge at merge time, when the two
// subtrees v_i and v_j are being joined into v_k. All quantities are known
// bottom-up at that moment — including the parent activity P(EN_k), because
// the enable of the merged node is the OR of its children's enables.
type EdgeInfo struct {
	P          float64 // signal probability of the subtree enable, P(EN_i)
	Ptr        float64 // transition probability of the subtree enable
	ParentP    float64 // signal probability of the merged parent, P(EN_k)
	SubtreeCap float64 // capacitance the gate would shield: est. edge wire + cap into the subtree root (fF)
	IsSink     bool    // the edge feeds a leaf module
	Node       int     // ID of the node the edge feeds
}

// Policy decides whether an edge receives a masking gate.
type Policy interface {
	Gate(e EdgeInfo) bool
}

// All gates every edge — the ungated-reduction configuration of Figure 3
// ("Gated").
type All struct{}

// Gate implements Policy.
func (All) Gate(EdgeInfo) bool { return true }

// None never gates — used for the buffered and plain zero-skew baselines.
type None struct{}

// Gate implements Policy.
func (None) Gate(EdgeInfo) bool { return false }

// Fixed pins a gate assignment: the edge feeding node ID carries a gate
// exactly when the map holds true for it. Replaying a topology under the
// Fixed set of its own gates reproduces the tree.
type Fixed map[int]bool

// Gate implements Policy.
func (f Fixed) Gate(e EdgeInfo) bool { return f[e.Node] }

// Reduction is the §4.3 heuristic. A gate is removed when any of the three
// rules fires:
//
//  1. the node's activity is close to one (P ≥ MaxActivity): there is no
//     idle time to mask;
//  2. the node's switched capacitance is very small (SubtreeCap ≤ MinCap):
//     a gate can only save a sliver;
//  3. the parent's activity is almost the same as the node's
//     (ParentP − P ≤ ParentSlack): the parent's gate masks nearly as well.
//
// Regardless of the rules, a gate is forced whenever the capacitance it
// would shield reaches ForceCap (the paper: "whenever the subtree
// capacitance of the node reaches, say 20·C_g"), keeping the phase delay
// from growing without bound as gates are stripped.
type Reduction struct {
	MaxActivity float64 // rule 1 threshold on P(EN)
	MinCap      float64 // rule 2 threshold (fF)
	ParentSlack float64 // rule 3 threshold on ParentP − P
	ForceCap    float64 // forced insertion threshold (fF); 0 disables the rule
}

// DefaultReduction returns the reduction parameters used for the headline
// Figure 3 comparison. The capacitance floor scales with the die side: a
// gate's enable net runs O(die/4) to the controller, so on a larger chip a
// gate must shield proportionally more capacitance before masking pays for
// the star wiring.
func DefaultReduction(gateCin, dieSide float64) Reduction {
	return Reduction{
		MaxActivity: 0.80,
		MinCap:      BaseCap(gateCin, dieSide),
		ParentSlack: 0.04,
		ForceCap:    10 * BaseCap(gateCin, dieSide),
	}
}

// BaseCap is the shield-capacitance scale at which a gate starts paying for
// its enable net: max(2·C_g, 0.022·D) for gate input capacitance C_g and
// die side D. The default reduction thresholds, the Figure 5 sweep and the
// router's delay-driven buffer insertion are all expressed in this unit.
func BaseCap(gateCin, dieSide float64) float64 {
	base := 0.022 * dieSide
	if floor := 2 * gateCin; base < floor {
		base = floor
	}
	return base
}

// Validate checks threshold sanity.
func (r Reduction) Validate() error {
	switch {
	case r.MaxActivity < 0 || r.MaxActivity > 1.01:
		return errors.New("gating: MaxActivity must be in [0, 1]")
	case r.MinCap < 0 || r.ForceCap < 0:
		return errors.New("gating: capacitance thresholds must be non-negative")
	case r.ForceCap > 0 && r.ForceCap < r.MinCap:
		return fmt.Errorf("gating: ForceCap %v below MinCap %v removes and forces the same gates", r.ForceCap, r.MinCap)
	}
	return nil
}

// Gate implements Policy.
func (r Reduction) Gate(e EdgeInfo) bool {
	if r.ForceCap > 0 && e.SubtreeCap >= r.ForceCap {
		return true
	}
	if e.P >= r.MaxActivity {
		return false
	}
	if e.SubtreeCap <= r.MinCap {
		return false
	}
	if e.ParentP-e.P <= r.ParentSlack {
		return false
	}
	return true
}

// Sweep maps a reduction intensity θ ∈ [0, 1] to Reduction parameters,
// producing the x-axis of Figure 5: θ = 0 keeps every gate, θ = 1 strips
// all but the forced ones. gateCin and dieSide calibrate the capacitance
// thresholds (see DefaultReduction).
func Sweep(theta, gateCin, dieSide float64) Reduction {
	if theta < 0 {
		theta = 0
	}
	if theta > 1 {
		theta = 1
	}
	base := BaseCap(gateCin, dieSide)
	r := Reduction{
		MaxActivity: 1.0001 - theta,
		MinCap:      theta * 4 * base,
		ParentSlack: theta * 0.5,
		ForceCap:    40 * base,
	}
	if theta == 0 {
		// Exactly full gating: disable every removal rule.
		r.MaxActivity = 1.0001
		r.MinCap = 0
		r.ParentSlack = -1
	}
	return r
}
