package dme

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/geom"
	"repro/internal/rctree"
	"repro/internal/tech"
	"repro/internal/topology"
)

// branchDelayAt evaluates the branch delay polynomial directly (the
// reference the solver must match).
func branchDelayAt(p tech.Params, br Branch, l float64) float64 {
	t := br.Delay
	if br.Driver != nil {
		t += br.Driver.Delay(p.WireCap(l) + br.Cap)
	}
	return t + p.WireDelay(l, br.Cap)
}

func sinkBranch(x, y, cap float64) Branch {
	return Branch{MS: geom.FromPoint(geom.Pt(x, y)), Cap: cap}
}

func TestSymmetricMerge(t *testing.T) {
	p := tech.Default()
	a := sinkBranch(0, 0, 20)
	b := sinkBranch(10, 0, 20)
	m, err := BoundedSkewMerge(p, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.LenA-5) > 1e-9 || math.Abs(m.LenB-5) > 1e-9 {
		t.Errorf("symmetric merge lengths %v/%v, want 5/5", m.LenA, m.LenB)
	}
	if m.Snaked {
		t.Error("symmetric merge should not snake")
	}
	if want := p.WireDelay(5, 20); math.Abs(m.Delay-want) > 1e-9 {
		t.Errorf("Delay = %v, want %v", m.Delay, want)
	}
	if want := 2 * (p.WireCap(5) + 20); math.Abs(m.Cap-want) > 1e-9 {
		t.Errorf("Cap = %v, want %v", m.Cap, want)
	}
}

func TestAsymmetricCapsShiftTapPoint(t *testing.T) {
	p := tech.Default()
	a := sinkBranch(0, 0, 200) // heavy sink
	b := sinkBranch(10, 0, 5)  // light sink
	m, err := BoundedSkewMerge(p, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The tap point must move toward the heavy sink: la < lb.
	if m.LenA >= m.LenB {
		t.Errorf("tap point did not shift toward heavy load: la=%v lb=%v", m.LenA, m.LenB)
	}
	ta := branchDelayAt(p, a, m.LenA)
	tb := branchDelayAt(p, b, m.LenB)
	if math.Abs(ta-tb) > SkewTolerancePs {
		t.Errorf("unbalanced merge: %v vs %v", ta, tb)
	}
}

func TestSnakingWhenBranchTooSlow(t *testing.T) {
	p := tech.Default()
	a := sinkBranch(0, 0, 20)
	a.Delay = 5000 // branch a is far slower than 10 λ of wire can compensate
	b := sinkBranch(10, 0, 20)
	m, err := BoundedSkewMerge(p, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Snaked {
		t.Fatal("expected snaking")
	}
	if m.LenA != 0 {
		t.Errorf("slow branch should get zero wire, got %v", m.LenA)
	}
	if m.LenB <= 10 {
		t.Errorf("snaked wire %v must exceed geometric distance 10", m.LenB)
	}
	ta := branchDelayAt(p, a, m.LenA)
	tb := branchDelayAt(p, b, m.LenB)
	if math.Abs(ta-tb) > SkewTolerancePs {
		t.Errorf("snaked merge unbalanced: %v vs %v", ta, tb)
	}
	// Mirror image: the other branch slow.
	m2, err := BoundedSkewMerge(p, b, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Snaked || m2.LenB != 0 || m2.LenA <= 10 {
		t.Errorf("mirrored snaking wrong: %+v", m2)
	}
}

func TestCoincidentZeroCapMerge(t *testing.T) {
	p := tech.Default()
	a := sinkBranch(5, 5, 0)
	b := sinkBranch(5, 5, 0)
	b.Delay = 100
	m, err := BoundedSkewMerge(p, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	ta := branchDelayAt(p, a, m.LenA)
	tb := branchDelayAt(p, b, m.LenB)
	if math.Abs(ta-tb) > SkewTolerancePs {
		t.Errorf("degenerate merge unbalanced: %v vs %v", ta, tb)
	}
	if m.LenA <= 0 {
		t.Error("the faster branch must snake to absorb 100 ps")
	}
}

func TestMergeWithDrivers(t *testing.T) {
	p := tech.Default()
	for _, tc := range []struct {
		name   string
		da, db *tech.Driver
	}{
		{"both gated", &p.Gate, &p.Gate},
		{"one gated", &p.Gate, nil},
		{"buffered", &p.Buffer, &p.Buffer},
		{"mixed", &p.Buffer, &p.Gate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := sinkBranch(0, 0, 35)
			a.Driver = tc.da
			b := sinkBranch(120, 40, 15)
			b.Driver = tc.db
			m, err := BoundedSkewMerge(p, a, b, 0)
			if err != nil {
				t.Fatal(err)
			}
			ta := branchDelayAt(p, a, m.LenA)
			tb := branchDelayAt(p, b, m.LenB)
			if math.Abs(ta-tb) > SkewTolerancePs {
				t.Errorf("unbalanced: %v vs %v", ta, tb)
			}
			wantCap := 0.0
			for _, side := range []struct {
				br Branch
				l  float64
			}{{a, m.LenA}, {b, m.LenB}} {
				if side.br.Driver != nil {
					wantCap += side.br.Driver.Cin
				} else {
					wantCap += p.WireCap(side.l) + side.br.Cap
				}
			}
			if math.Abs(m.Cap-wantCap) > 1e-9 {
				t.Errorf("Cap = %v, want %v", m.Cap, wantCap)
			}
		})
	}
}

// TestMergeProperty fuzzes random branch configurations and checks the
// universal invariants: non-negative lengths, la+lb ≥ distance, balanced
// delays, merge segment inside both expansions.
func TestMergeProperty(t *testing.T) {
	p := tech.Default()
	rng := rand.New(rand.NewPCG(77, 88))
	drivers := []*tech.Driver{nil, &p.Gate, &p.Buffer}
	for iter := 0; iter < 2000; iter++ {
		a := Branch{
			MS:     geom.FromPoint(geom.Pt(rng.Float64()*1000, rng.Float64()*1000)),
			Delay:  rng.Float64() * 200,
			Cap:    rng.Float64() * 100,
			Driver: drivers[rng.IntN(3)],
		}
		b := Branch{
			MS:     geom.FromPoint(geom.Pt(rng.Float64()*1000, rng.Float64()*1000)),
			Delay:  rng.Float64() * 200,
			Cap:    rng.Float64() * 100,
			Driver: drivers[rng.IntN(3)],
		}
		// Arcs as well as points.
		if rng.IntN(2) == 0 {
			a.MS = a.MS.Expand(rng.Float64() * 50)
			a.MS = geom.TRR{U0: a.MS.U0, U1: a.MS.U1, W0: a.MS.W0, W1: a.MS.W0}
		}
		m, err := BoundedSkewMerge(p, a, b, 0)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if m.LenA < 0 || m.LenB < 0 {
			t.Fatalf("negative edge length: %+v", m)
		}
		dist := a.MS.Dist(b.MS)
		if m.LenA+m.LenB < dist-1e-6 {
			t.Fatalf("total wire %v below distance %v", m.LenA+m.LenB, dist)
		}
		ta := branchDelayAt(p, a, m.LenA)
		tb := branchDelayAt(p, b, m.LenB)
		if math.Abs(ta-tb) > SkewTolerancePs*(1+math.Abs(ta)) {
			t.Fatalf("iter %d: unbalanced %v vs %v", iter, ta, tb)
		}
		if math.Abs(m.Delay-ta) > 1e-6*(1+math.Abs(ta)) {
			t.Fatalf("reported delay %v != %v", m.Delay, ta)
		}
		if !m.MS.Valid() {
			t.Fatalf("invalid merge region %+v", m.MS)
		}
	}
}

// buildRandomTree merges random sinks pairwise in index order — a valid
// (if suboptimal) topology — exercising the full bottom-up/top-down flow.
func buildRandomTree(t *testing.T, p tech.Params, n int, driver *tech.Driver, rng *rand.Rand) *topology.Tree {
	t.Helper()
	var nodes []*topology.Node
	for i := 0; i < n; i++ {
		loc := geom.Pt(rng.Float64()*5000, rng.Float64()*5000)
		nodes = append(nodes, topology.NewSink(i, i, loc, 5+rng.Float64()*50))
	}
	id := n
	for len(nodes) > 1 {
		var next []*topology.Node
		for i := 0; i+1 < len(nodes); i += 2 {
			a, b := nodes[i], nodes[i+1]
			m, err := BoundedSkewMerge(p,
				Branch{MS: a.MS, Delay: a.Delay, Cap: a.Cap, Driver: driver},
				Branch{MS: b.MS, Delay: b.Delay, Cap: b.Cap, Driver: driver}, 0)
			if err != nil {
				t.Fatal(err)
			}
			k := &topology.Node{ID: id, SinkIndex: -1, Left: a, Right: b,
				MS: m.MS, Delay: m.Delay, Cap: m.Cap}
			id++
			a.Parent, b.Parent = k, k
			a.EdgeLen, b.EdgeLen = m.LenA, m.LenB
			if driver != nil {
				a.SetDriver(driver, true)
				b.SetDriver(driver, true)
			}
			next = append(next, k)
		}
		if len(nodes)%2 == 1 {
			next = append(next, nodes[len(nodes)-1])
		}
		nodes = next
	}
	tree := &topology.Tree{Root: nodes[0], Source: geom.Pt(2500, 2500)}
	Embed(tree)
	return tree
}

func TestFullTreeZeroSkew(t *testing.T) {
	p := tech.Default()
	rng := rand.New(rand.NewPCG(5, 6))
	for _, n := range []int{2, 3, 7, 16, 33, 100} {
		for _, driver := range []*tech.Driver{nil, &p.Gate, &p.Buffer} {
			tree := buildRandomTree(t, p, n, driver, rng)
			if err := tree.Validate(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if err := CheckEmbedding(tree); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			a := rctree.Analyze(tree, p)
			if len(a.SinkDelay) != n {
				t.Fatalf("n=%d: analyzed %d sinks", n, len(a.SinkDelay))
			}
			if a.Skew > 1e-6*(1+a.MaxDelay) {
				t.Errorf("n=%d driver=%v: skew %v ps (max delay %v)", n, driver, a.Skew, a.MaxDelay)
			}
		}
	}
}

func TestEmbedPlacesRootNearSource(t *testing.T) {
	p := tech.Default()
	rng := rand.New(rand.NewPCG(9, 10))
	tree := buildRandomTree(t, p, 16, nil, rng)
	// The root must sit on its merging segment at the closest point to the
	// source.
	want := tree.Root.MS.Nearest(tree.Source)
	if geom.Dist(tree.Root.Loc, want) > 1e-9 {
		t.Errorf("root at %v, want %v", tree.Root.Loc, want)
	}
	if math.Abs(tree.Root.EdgeLen-geom.Dist(tree.Source, tree.Root.Loc)) > 1e-9 {
		t.Error("root edge length must equal source distance")
	}
}

func TestGateShieldingReducesUpstreamLoad(t *testing.T) {
	p := tech.Default()
	a := sinkBranch(0, 0, 500)
	b := sinkBranch(400, 0, 500)
	plain, err := BoundedSkewMerge(p, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.Driver, b.Driver = &p.Gate, &p.Gate
	gated, err := BoundedSkewMerge(p, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gated.Cap >= plain.Cap {
		t.Errorf("gates must shield load: gated %v, plain %v", gated.Cap, plain.Cap)
	}
	if gated.Cap != 2*p.Gate.Cin {
		t.Errorf("gated cap %v, want %v", gated.Cap, 2*p.Gate.Cin)
	}
}

func TestElongateEdgeCases(t *testing.T) {
	if _, err := elongate(0, 0, 0, 5); err == nil {
		t.Error("zero-impedance branch cannot absorb delay")
	}
	if l, err := elongate(0, 2, 0, 10); err != nil || l != 5 {
		t.Errorf("linear elongation: %v %v", l, err)
	}
	if l, err := elongate(0, 0, 7, 7); err != nil || l != 0 {
		t.Errorf("equal delays: %v %v", l, err)
	}
	if _, err := elongate(1, 1, 10, 0); err == nil {
		t.Error("target below branch delay must fail")
	}
	if l, err := elongate(1, 0, 0, 9); err != nil || math.Abs(l-3) > 1e-12 {
		t.Errorf("quadratic elongation: %v %v", l, err)
	}
}

func TestCheckEmbeddingCatchesViolations(t *testing.T) {
	p := tech.Default()
	rng := rand.New(rand.NewPCG(15, 16))
	tree := buildRandomTree(t, p, 8, nil, rng)
	if err := CheckEmbedding(tree); err != nil {
		t.Fatalf("valid embedding rejected: %v", err)
	}
	// Node moved off its merging segment.
	bad := buildRandomTree(t, p, 8, nil, rng)
	bad.Root.Left.Loc = geom.Pt(-1e6, -1e6)
	if err := CheckEmbedding(bad); err == nil {
		t.Error("off-segment node must be caught")
	}
	// Edge shorter than the parent-child distance.
	bad2 := buildRandomTree(t, p, 8, nil, rng)
	bad2.Root.Left.EdgeLen = 0
	if geom.Dist(bad2.Root.Left.Loc, bad2.Root.Loc) > 1e-6 {
		if err := CheckEmbedding(bad2); err == nil {
			t.Error("undersized edge must be caught")
		}
	}
}

func TestMergeRegionContainsTapNeighborhood(t *testing.T) {
	// Every point of the merge region must be within la of A and lb of B.
	p := tech.Default()
	rng := rand.New(rand.NewPCG(17, 18))
	for i := 0; i < 300; i++ {
		a := sinkBranch(rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*50)
		b := sinkBranch(rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*50)
		m, err := BoundedSkewMerge(p, a, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range m.MS.Corners() {
			if d := a.MS.DistToPoint(c); d > m.LenA+1e-6 {
				t.Fatalf("corner %v at %v from A, edge %v", c, d, m.LenA)
			}
			if d := b.MS.DistToPoint(c); d > m.LenB+1e-6 {
				t.Fatalf("corner %v at %v from B, edge %v", c, d, m.LenB)
			}
		}
	}
}

// CheckEmbedding verifies that every embedded location is geometrically
// consistent: each node sits on its merging segment and within its edge
// length of its parent.
func CheckEmbedding(t *topology.Tree) error {
	var err error
	t.Root.PreOrder(func(n *topology.Node) {
		if err != nil {
			return
		}
		if !n.MS.Contains(n.Loc, 1e-6) {
			err = fmt.Errorf("dme: node %d embedded off its merging segment", n.ID)
			return
		}
		if n.Parent != nil {
			if d := geom.Dist(n.Loc, n.Parent.Loc); d > n.EdgeLen+1e-6 {
				err = fmt.Errorf("dme: node %d at distance %v from parent but edge length %v",
					n.ID, d, n.EdgeLen)
			}
		}
	})
	return err
}
