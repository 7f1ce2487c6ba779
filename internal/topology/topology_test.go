package topology

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// buildPair returns a minimal two-sink tree with consistent links.
func buildPair() *Tree {
	s0 := NewSink(0, 0, geom.Pt(0, 0), 10)
	s1 := NewSink(1, 1, geom.Pt(10, 0), 20)
	root := &Node{ID: 2, SinkIndex: -1, Left: s0, Right: s1}
	s0.Parent, s1.Parent = root, root
	s0.EdgeLen, s1.EdgeLen = 5, 5
	return &Tree{Root: root, Source: geom.Pt(5, 5)}
}

func TestNewSink(t *testing.T) {
	s := NewSink(3, 7, geom.Pt(1, 2), 42)
	if !s.IsSink() || s.SinkIndex != 7 || s.LoadCap != 42 || s.Cap != 42 {
		t.Errorf("NewSink fields wrong: %+v", s)
	}
	if !s.MS.IsPoint() {
		t.Error("sink merging segment must be a point")
	}
}

func TestValidateGood(t *testing.T) {
	if err := buildPair().Validate(); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
}

func TestValidateCatchesBrokenTrees(t *testing.T) {
	t.Run("one child", func(t *testing.T) {
		tr := buildPair()
		tr.Root.Right = nil
		if tr.Validate() == nil {
			t.Error("single-child node must fail")
		}
	})
	t.Run("bad parent link", func(t *testing.T) {
		tr := buildPair()
		tr.Root.Left.Parent = tr.Root.Left
		if tr.Validate() == nil {
			t.Error("broken parent link must fail")
		}
	})
	t.Run("leaf without sink", func(t *testing.T) {
		tr := buildPair()
		tr.Root.Left.SinkIndex = -1
		if tr.Validate() == nil {
			t.Error("leaf without sink index must fail")
		}
	})
	t.Run("internal with sink", func(t *testing.T) {
		tr := buildPair()
		tr.Root.SinkIndex = 5
		if tr.Validate() == nil {
			t.Error("internal node with sink index must fail")
		}
	})
	t.Run("duplicate sink", func(t *testing.T) {
		tr := buildPair()
		tr.Root.Right.SinkIndex = 0
		if tr.Validate() == nil {
			t.Error("duplicate sink index must fail")
		}
	})
	t.Run("negative edge", func(t *testing.T) {
		tr := buildPair()
		tr.Root.Left.EdgeLen = -1
		if tr.Validate() == nil {
			t.Error("negative edge length must fail")
		}
	})
	t.Run("nil root", func(t *testing.T) {
		if (&Tree{}).Validate() == nil {
			t.Error("nil root must fail")
		}
	})
}

func TestTraversalOrders(t *testing.T) {
	tr := buildPair()
	var post, pre []int
	tr.Root.PostOrder(func(n *Node) { post = append(post, n.ID) })
	tr.Root.PreOrder(func(n *Node) { pre = append(pre, n.ID) })
	if len(post) != 3 || post[2] != 2 {
		t.Errorf("post order %v must end at root", post)
	}
	if len(pre) != 3 || pre[0] != 2 {
		t.Errorf("pre order %v must start at root", pre)
	}
}

func TestSinksAndCounts(t *testing.T) {
	tr := buildPair()
	sinks := tr.Root.Sinks()
	if len(sinks) != 2 || sinks[0].SinkIndex != 0 || sinks[1].SinkIndex != 1 {
		t.Errorf("Sinks = %v", sinks)
	}
	if tr.NumSinks() != 2 || tr.Root.CountNodes() != 3 || tr.Root.Depth() != 1 {
		t.Error("counts wrong")
	}
}

func TestWirelength(t *testing.T) {
	tr := buildPair()
	tr.Root.EdgeLen = 7
	if got := tr.Wirelength(); got != 17 {
		t.Errorf("Wirelength = %v, want 17", got)
	}
}

func TestDrivers(t *testing.T) {
	tr := buildPair()
	n := tr.Root.Left
	p := tech.Default()
	if n.Gated() {
		t.Error("fresh node must not be gated")
	}
	n.SetDriver(&p.Gate, true)
	if !n.Gated() || n.Driver != &p.Gate {
		t.Error("SetDriver(gate) failed")
	}
	n.SetDriver(&p.Buffer, false)
	if n.Gated() {
		t.Error("buffers must not count as gates")
	}
	n.ClearDriver()
	if n.Driver != nil || n.Gated() {
		t.Error("ClearDriver failed")
	}
}

// ClearDriver removes any driver from n's incoming edge.
func (n *Node) ClearDriver() {
	n.Driver = nil
	n.isGate = false
}
