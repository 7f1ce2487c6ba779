package dme

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/geom"
	"repro/internal/rctree"
	"repro/internal/tech"
	"repro/internal/topology"
)

func TestBoundedSkewMergeValidation(t *testing.T) {
	p := tech.Default()
	a, b := sinkBranch(0, 0, 10), sinkBranch(10, 0, 10)
	if _, err := BoundedSkewMerge(p, a, b, -1); err == nil {
		t.Error("negative budget must fail")
	}
	a.Spread = 50
	if _, err := BoundedSkewMerge(p, a, b, 10); err == nil {
		t.Error("branch spread above budget must fail")
	}
}

// TestBudgetZeroIsZeroSkew: a zero budget reports zero spread
// (TestMergeProperty checks that it balances the branch delays).
func TestBudgetZeroIsZeroSkew(t *testing.T) {
	p := tech.Default()
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 500; i++ {
		a := Branch{MS: geom.FromPoint(geom.Pt(rng.Float64()*1000, rng.Float64()*1000)),
			Delay: rng.Float64() * 300, Cap: rng.Float64() * 80}
		b := Branch{MS: geom.FromPoint(geom.Pt(rng.Float64()*1000, rng.Float64()*1000)),
			Delay: rng.Float64() * 300, Cap: rng.Float64() * 80}
		m, err := BoundedSkewMerge(p, a, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		if m.Spread != 0 {
			t.Fatalf("zero-skew merge has spread %v", m.Spread)
		}
	}
}

// TestBudgetAbsorbsSnaking: when the imbalance fits the budget, no detour
// wire is added and the spread is the residual imbalance.
func TestBudgetAbsorbsSnaking(t *testing.T) {
	p := tech.Default()
	a := sinkBranch(0, 0, 20)
	a.Delay = 400 // slower branch; zero skew would snake
	b := sinkBranch(100, 0, 20)

	zs, err := BoundedSkewMerge(p, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !zs.Snaked {
		t.Fatal("test setup: zero skew should snake here")
	}

	bs, err := BoundedSkewMerge(p, a, b, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Snaked {
		t.Error("generous budget must avoid snaking")
	}
	if bs.LenA+bs.LenB != 100 {
		t.Errorf("bounded merge should use exactly the joining segment, got %v", bs.LenA+bs.LenB)
	}
	if bs.LenA+bs.LenB >= zs.LenA+zs.LenB {
		t.Error("budget must save wire versus zero skew")
	}
	if bs.Spread <= 0 || bs.Spread > 1000 {
		t.Errorf("spread %v outside (0, budget]", bs.Spread)
	}
	// The max delay never exceeds the zero-skew max delay.
	if bs.Delay > zs.Delay+1e-9 {
		t.Errorf("bounded merge max delay %v above zero-skew %v", bs.Delay, zs.Delay)
	}
}

// TestPartialElongation: with a budget smaller than the imbalance, the fast
// branch is elongated just enough to hit the budget.
func TestPartialElongation(t *testing.T) {
	p := tech.Default()
	a := sinkBranch(0, 0, 20)
	a.Delay = 400
	b := sinkBranch(100, 0, 20)

	zs, _ := BoundedSkewMerge(p, a, b, 0)
	bs, err := BoundedSkewMerge(p, a, b, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !bs.Snaked {
		t.Fatal("tight budget must still snake")
	}
	if math.Abs(bs.Spread-50) > 1e-6 {
		t.Errorf("spread %v, want exactly the budget 50", bs.Spread)
	}
	if bs.LenB >= zs.LenB || bs.LenB <= 100 {
		t.Errorf("partial elongation %v must sit between 100 and the full snake %v", bs.LenB, zs.LenB)
	}
	// Residual imbalance equals the budget.
	ta := branchDelayAt(p, a, bs.LenA)
	tb := branchDelayAt(p, b, bs.LenB)
	if math.Abs((ta-tb)-50) > 1e-6 {
		t.Errorf("residual imbalance %v, want 50", ta-tb)
	}
}

// TestBoundedSkewTreeProperty: full trees built with a budget must verify
// skew ≤ budget and use no more wire than their zero-skew twins.
func TestBoundedSkewTreeProperty(t *testing.T) {
	p := tech.Default()
	for _, budget := range []float64{0, 5, 25, 100} {
		rng := rand.New(rand.NewPCG(9, uint64(budget)))
		tree := buildBoundedTree(t, p, 48, budget, rng)
		a := rctree.Analyze(tree, p)
		if a.Skew > budget+1e-6 {
			t.Errorf("budget %v: verified skew %v", budget, a.Skew)
		}
	}
	// Monotone wirelength: larger budgets never cost more wire (same seed).
	prev := math.Inf(1)
	for _, budget := range []float64{0, 5, 25, 100, 400} {
		rng := rand.New(rand.NewPCG(9, 77))
		tree := buildBoundedTree(t, p, 48, budget, rng)
		wl := tree.Wirelength()
		if wl > prev+1e-6 {
			t.Errorf("budget %v: wirelength %v above smaller-budget %v", budget, wl, prev)
		}
		prev = wl
	}
}

// buildBoundedTree pairs sinks in index order under a skew budget.
func buildBoundedTree(t *testing.T, p tech.Params, n int, budget float64, rng *rand.Rand) *topology.Tree {
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
				Branch{MS: a.MS, Delay: a.Delay, Spread: a.Spread, Cap: a.Cap},
				Branch{MS: b.MS, Delay: b.Delay, Spread: b.Spread, Cap: b.Cap},
				budget)
			if err != nil {
				t.Fatal(err)
			}
			k := &topology.Node{ID: id, SinkIndex: -1, Left: a, Right: b,
				MS: m.MS, Delay: m.Delay, Spread: m.Spread, Cap: m.Cap}
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
	tree := &topology.Tree{Root: nodes[0], Source: geom.Pt(2500, 2500)}
	Embed(tree)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// The tracked spread must be a sound upper bound on the verified skew.
	a := rctree.Analyze(tree, p)
	if a.Skew > tree.Root.Spread+1e-6 {
		t.Fatalf("verified skew %v exceeds tracked spread %v", a.Skew, tree.Root.Spread)
	}
	return tree
}
