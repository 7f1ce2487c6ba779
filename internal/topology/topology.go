// Package topology defines the clock-tree data structure shared by the
// router, the embedding pass, the power evaluator and the verifier.
//
// A clock tree here is a full binary tree (every internal node has exactly
// two children, matching §2 of the paper). Each node owns the edge that
// connects it to its parent: the edge's electrical wire length (which can
// exceed the geometric distance when zero skew requires snaking), the
// optional driver (AND masking gate or buffer) at the top of that edge, and
// the enable-signal activity of the subtree.
package topology

import (
	"fmt"
	"math"

	"repro/internal/activity"
	"repro/internal/geom"
	"repro/internal/tech"
)

// Node is one vertex of the clock tree. Sinks are leaves; Steiner points are
// internal nodes. Fields are populated in two phases: the bottom-up merge
// phase fills MS/EdgeLen/Delay/Cap/activity, the top-down embedding fills
// Loc.
type Node struct {
	ID          int
	Left, Right *Node
	Parent      *Node
	SinkIndex   int // index of the module/sink at this leaf; −1 for Steiner nodes

	// Geometry.
	MS      geom.TRR   // merging segment (a Manhattan arc; a point for sinks)
	Loc     geom.Point // embedded location (valid after embedding)
	EdgeLen float64    // electrical length of the edge from Parent (or from the source, for the root)

	// Electrical state looking down from this node.
	Driver  *tech.Driver // driver at the top of the incoming edge; nil = plain wire
	Delay   float64      // max Elmore delay from this node to the sinks below (ps)
	Spread  float64      // max − min sink delay below this node (ps); 0 under zero skew
	Cap     float64      // capacitance looking into this node (fF)
	LoadCap float64      // sink load capacitance (sinks only)

	// AttachCap is the capacitance directly attached at this node within the
	// gating domain of the edge above it: the sink load for leaves, and for
	// Steiner nodes the children's driver input caps (when driven) or their
	// recursive wire + attach caps (when bare). It makes the paper's
	// per-edge switched capacitance (c·|e_i| + C_i)·P(EN_i) exact under
	// partial gating.
	AttachCap float64

	// Enable-signal activity of the subtree (set for every node even when
	// the edge carries no gate, so gate-reduction sweeps can re-gate).
	Instr  activity.InstrSet // instructions that activate any module below
	P, Ptr float64           // signal and transition probability of EN

	isGate bool // Driver is a masking gate, not a free-running buffer
}

// NewSink returns a leaf node for module sinkIndex at the given location.
func NewSink(id, sinkIndex int, loc geom.Point, loadCap float64) *Node {
	n := MakeSink(id, sinkIndex, loc, loadCap)
	return &n
}

// MakeSink is NewSink by value, for callers that slab-allocate their nodes
// (the router builds all sinks of an instance in one backing array).
func MakeSink(id, sinkIndex int, loc geom.Point, loadCap float64) Node {
	return Node{
		ID:        id,
		SinkIndex: sinkIndex,
		MS:        geom.FromPoint(loc),
		Loc:       loc,
		Cap:       loadCap,
		LoadCap:   loadCap,
		AttachCap: loadCap,
	}
}

// IsSink reports whether n is a leaf.
func (n *Node) IsSink() bool { return n.Left == nil && n.Right == nil }

// MSKey returns the spatial-index key of n's merging segment: its midpoint
// in rotated (u, w) coordinates plus its Chebyshev radius in the same
// frame. The merging segment is immutable once the node is created, so the
// key never changes while the node is indexed.
func (n *Node) MSKey() (u, w, rad float64) {
	u, w = n.MS.CenterRotated()
	return u, w, n.MS.RadiusChebyshev()
}

// Gated reports whether the edge feeding n carries a masking gate (as
// opposed to a plain buffer or bare wire).
func (n *Node) Gated() bool { return n.Driver != nil && n.isGate }

// PostOrder visits the subtree rooted at n, children before parents.
func (n *Node) PostOrder(visit func(*Node)) {
	if n == nil {
		return
	}
	n.Left.PostOrder(visit)
	n.Right.PostOrder(visit)
	visit(n)
}

// PreOrder visits the subtree rooted at n, parents before children.
func (n *Node) PreOrder(visit func(*Node)) {
	if n == nil {
		return
	}
	visit(n)
	n.Left.PreOrder(visit)
	n.Right.PreOrder(visit)
}

// Sinks returns the leaves below n in left-to-right order.
func (n *Node) Sinks() []*Node {
	var out []*Node
	n.PostOrder(func(v *Node) {
		if v.IsSink() {
			out = append(out, v)
		}
	})
	return out
}

// CountNodes returns the number of nodes in the subtree.
func (n *Node) CountNodes() int {
	total := 0
	n.PostOrder(func(*Node) { total++ })
	return total
}

// Depth returns the maximum leaf depth (root = 0).
func (n *Node) Depth() int {
	if n == nil {
		return -1
	}
	l, r := n.Left.Depth(), n.Right.Depth()
	return 1 + max(l, r)
}

// TotalEdgeLen returns the summed electrical wire length of all edges in the
// subtree, including n's own incoming edge.
func (n *Node) TotalEdgeLen() float64 {
	total := 0.0
	n.PostOrder(func(v *Node) { total += v.EdgeLen })
	return total
}

// Tree bundles a routed clock tree with its source location.
type Tree struct {
	Root   *Node
	Source geom.Point // clock source (pad/PLL) location
}

// NumSinks returns the number of leaves.
func (t *Tree) NumSinks() int { return len(t.Root.Sinks()) }

// Wirelength returns the total electrical clock wire length including the
// source-to-root edge.
func (t *Tree) Wirelength() float64 { return t.Root.TotalEdgeLen() }

// Validate checks the structural invariants: full binary shape, consistent
// parent pointers, exactly one sink per leaf, distinct sink indices, and
// non-negative edge lengths.
func (t *Tree) Validate() error {
	if t.Root == nil {
		return fmt.Errorf("topology: nil root")
	}
	seen := map[int]bool{}
	var err error
	t.Root.PreOrder(func(n *Node) {
		if err != nil {
			return
		}
		switch {
		case (n.Left == nil) != (n.Right == nil):
			err = fmt.Errorf("topology: node %d has exactly one child (not full binary)", n.ID)
		case n.Left != nil && (n.Left.Parent != n || n.Right.Parent != n):
			err = fmt.Errorf("topology: node %d has inconsistent parent links", n.ID)
		case n.IsSink() && n.SinkIndex < 0:
			err = fmt.Errorf("topology: leaf %d has no sink index", n.ID)
		case !n.IsSink() && n.SinkIndex >= 0:
			err = fmt.Errorf("topology: internal node %d claims sink %d", n.ID, n.SinkIndex)
		case n.IsSink() && seen[n.SinkIndex]:
			err = fmt.Errorf("topology: sink %d appears twice", n.SinkIndex)
		case n.EdgeLen < 0 || math.IsNaN(n.EdgeLen):
			err = fmt.Errorf("topology: node %d has bad edge length %v", n.ID, n.EdgeLen)
		}
		if n.IsSink() {
			seen[n.SinkIndex] = true
		}
	})
	return err
}

// SetDriver installs a driver at the top of n's incoming edge. gate marks it
// as a masking AND gate (participating in the controller star and switching
// with P(EN)); otherwise it is a free-running buffer.
func (n *Node) SetDriver(d *tech.Driver, gate bool) {
	n.Driver = d
	n.isGate = gate
}
