package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/activity"
	"repro/internal/ctrl"
	"repro/internal/gating"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/rctree"
	"repro/internal/stream"
	"repro/internal/tech"
	"repro/internal/topology"
)

// makeInstance builds a small random instance with a matching activity
// profile.
func makeInstance(t testing.TB, n int, seed uint64) *Instance {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 99))
	in := &Instance{Die: geom.Rect{X0: 0, Y0: 0, X1: 4000, Y1: 4000}}
	for i := 0; i < n; i++ {
		in.SinkLocs = append(in.SinkLocs, geom.Pt(rng.Float64()*4000, rng.Float64()*4000))
		in.SinkCaps = append(in.SinkCaps, 20+rng.Float64()*80)
	}
	d, err := isa.Generate(isa.GenConfig{NumModules: n, NumInstr: 8, Usage: 0.4, Scatter: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.DefaultMarkov().Generate(d, 1500, rng)
	in.Profile, err = activity.NewProfile(d, s)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func allOptions() []Options {
	p := tech.Default()
	return []Options{
		{Tech: p, Method: NearestNeighbor, Drivers: BareTree},
		{Tech: p, Method: NearestNeighbor, Drivers: BufferedTree},
		{Tech: p, Method: GreedyDistance, Drivers: BareTree},
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, Policy: gating.All{}},
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree}, // default reduction
		{Tech: p, Method: MinClockCapOnly, Drivers: GatedTree},
		{Tech: p, Method: ActivityDriven, Drivers: GatedTree},
		{Tech: p, Method: MeansAndMedians, Drivers: GatedTree},
		{Tech: p, Method: MeansAndMedians, Drivers: BufferedTree},
		{Tech: p, Method: NearestNeighbor, Drivers: GatedTree},
	}
}

// TestRouteZeroSkewAllModes is the central invariant: every method/driver
// combination yields a valid full-binary tree with (numerically) zero skew.
func TestRouteZeroSkewAllModes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 16, 60} {
		in := makeInstance(t, n, uint64(n))
		for _, opts := range allOptions() {
			tree, stats, err := Route(in, opts)
			if err != nil {
				t.Fatalf("n=%d %v/%v: %v", n, opts.Method, opts.Drivers, err)
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("n=%d %v/%v: %v", n, opts.Method, opts.Drivers, err)
			}
			if got := tree.NumSinks(); got != n {
				t.Fatalf("n=%d: tree has %d sinks", n, got)
			}
			if stats.Merges != n-1 {
				t.Fatalf("n=%d: %d merges", n, stats.Merges)
			}
			a := rctree.Analyze(tree, opts.Tech)
			if a.Skew > 1e-6*(1+a.MaxDelay) {
				t.Fatalf("n=%d %v/%v: skew %v ps", n, opts.Method, opts.Drivers, a.Skew)
			}
		}
	}
}

func TestRouteDeterminism(t *testing.T) {
	in := makeInstance(t, 40, 7)
	opts := Options{Tech: tech.Default(), Method: MinSwitchedCap, Drivers: GatedTree}
	t1, _, err := Route(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := Route(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Wirelength() != t2.Wirelength() {
		t.Error("routing must be deterministic")
	}
	var g1, g2 int
	t1.Root.PreOrder(func(n *topology.Node) {
		if n.Gated() {
			g1++
		}
	})
	t2.Root.PreOrder(func(n *topology.Node) {
		if n.Gated() {
			g2++
		}
	})
	if g1 != g2 {
		t.Errorf("gate counts differ: %d vs %d", g1, g2)
	}
}

func TestGateAllPlacesGateOnEveryEdge(t *testing.T) {
	in := makeInstance(t, 12, 3)
	tree, _, err := Route(in, Options{
		Tech: tech.Default(), Method: MinSwitchedCap, Drivers: GatedTree, Policy: gating.All{},
	})
	if err != nil {
		t.Fatal(err)
	}
	gates := 0
	tree.Root.PreOrder(func(n *topology.Node) {
		if !n.Gated() {
			t.Errorf("edge of node %d is ungated under gating.All", n.ID)
		}
		gates++
	})
	if gates != 2*12-1 {
		t.Errorf("%d gate sites, want %d", gates, 2*12-1)
	}
}

func TestBufferedPlacesBufferOnEveryEdge(t *testing.T) {
	in := makeInstance(t, 12, 4)
	tree, _, err := Route(in, Options{Tech: tech.Default(), Method: NearestNeighbor, Drivers: BufferedTree})
	if err != nil {
		t.Fatal(err)
	}
	tree.Root.PreOrder(func(n *topology.Node) {
		if n.Driver == nil || n.Gated() {
			t.Errorf("node %d should carry a buffer", n.ID)
		}
		if n.Driver.Name != "buf" {
			t.Errorf("node %d carries %q", n.ID, n.Driver.Name)
		}
	})
}

func TestReductionKeepsFewerGates(t *testing.T) {
	in := makeInstance(t, 60, 5)
	p := tech.Default()
	full, _, err := Route(in, Options{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, Policy: gating.All{}})
	if err != nil {
		t.Fatal(err)
	}
	red, _, err := Route(in, Options{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree})
	if err != nil {
		t.Fatal(err)
	}
	count := func(tr *topology.Tree) int {
		n := 0
		tr.Root.PreOrder(func(v *topology.Node) {
			if v.Gated() {
				n++
			}
		})
		return n
	}
	if cf, cr := count(full), count(red); cr >= cf {
		t.Errorf("reduction kept %d of %d gates", cr, cf)
	}
}

// TestActivityPropagation pins the activity contract on every schedule: a
// sink's instruction set is its module's, an internal node's is the
// word-wise OR of its children's, every node's P and Ptr are SignalProb
// and TransProb of its own set bit for bit, and no enable is less likely
// than a child's. The K=80 instance spans two bitset words.
func TestActivityPropagation(t *testing.T) {
	p := tech.Default()
	modes := []struct {
		name string
		opts Options
	}{
		{"min-switched-cap/all", Options{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, Policy: gating.All{}}},
		{"min-switched-cap/reduced", Options{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree}},
		{"min-clock-cap", Options{Tech: p, Method: MinClockCapOnly, Drivers: GatedTree}},
		{"greedy-distance", Options{Tech: p, Method: GreedyDistance, Drivers: GatedTree}},
		{"activity-driven", Options{Tech: p, Method: ActivityDriven, Drivers: GatedTree}},
		{"nearest-neighbor", Options{Tech: p, Method: NearestNeighbor, Drivers: GatedTree}},
		{"means-and-medians", Options{Tech: p, Method: MeansAndMedians, Drivers: GatedTree}},
		{"buffered", Options{Tech: p, Method: NearestNeighbor, Drivers: BufferedTree}},
	}
	instances := []struct {
		name string
		in   *Instance
	}{
		{"n=30", makeInstance(t, 30, 6)},
		{"n=300", makeInstance(t, 300, 7)},
		{"n=300,k=80", placedInstance(t, "uniform", 300, 80, 5)},
	}
	for _, inst := range instances {
		prof := inst.in.Profile
		for _, m := range modes {
			t.Run(inst.name+"/"+m.name, func(t *testing.T) {
				tree, _, err := Route(inst.in, m.opts)
				if err != nil {
					t.Fatal(err)
				}
				tree.Root.PostOrder(func(n *topology.Node) {
					var want activity.InstrSet
					if n.IsSink() {
						want = prof.SetForModule(n.SinkIndex)
					} else {
						want = make(activity.InstrSet, prof.SetWords())
						for i := range want {
							want[i] = n.Left.Instr[i] | n.Right.Instr[i]
						}
						if n.P < math.Max(n.Left.P, n.Right.P)-1e-12 {
							t.Errorf("node %d: P %v below children (%v, %v)", n.ID, n.P, n.Left.P, n.Right.P)
						}
					}
					if !slices.Equal(n.Instr, want) {
						t.Errorf("node %d: instruction set %x, want %x", n.ID, n.Instr, want)
					}
					if got := prof.SignalProb(n.Instr); n.P != got {
						t.Errorf("node %d: P %v, SignalProb %v", n.ID, n.P, got)
					}
					if got := prof.TransProb(n.Instr); n.Ptr != got {
						t.Errorf("node %d: Ptr %v, TransProb %v", n.ID, n.Ptr, got)
					}
				})
			})
		}
	}
}

// TestAttachCapConsistency re-derives AttachCap from the finished tree.
func TestAttachCapConsistency(t *testing.T) {
	in := makeInstance(t, 30, 8)
	p := tech.Default()
	tree, _, err := Route(in, Options{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree})
	if err != nil {
		t.Fatal(err)
	}
	var attach func(n *topology.Node) float64
	attach = func(n *topology.Node) float64 {
		if n.IsSink() {
			return n.LoadCap
		}
		total := 0.0
		for _, c := range []*topology.Node{n.Left, n.Right} {
			if c.Driver != nil {
				total += c.Driver.Cin
			} else {
				total += p.WireCap(c.EdgeLen) + attach(c)
			}
		}
		return total
	}
	tree.Root.PreOrder(func(n *topology.Node) {
		if want := attach(n); math.Abs(n.AttachCap-want) > 1e-9 {
			t.Errorf("node %d: AttachCap %v, want %v", n.ID, n.AttachCap, want)
		}
	})
}

// TestMinSCBeatsDistanceGreedy: on gated instances the Eq-3 ordering should
// produce no more switched capacitance than the pure-distance greedy with
// the same gating policy (checked on several seeds; this is a strong
// empirical property of the heuristic, not a theorem, so all seeds share
// one tolerance).
func TestMinSCBeatsDistanceGreedy(t *testing.T) {
	p := tech.Default()
	c := ctrl.Centralized(geom.Rect{X0: 0, Y0: 0, X1: 4000, Y1: 4000})
	worse := 0
	for seed := uint64(10); seed < 16; seed++ {
		in := makeInstance(t, 48, seed)
		sc := func(method Method) float64 {
			tree, _, err := Route(in, Options{Tech: p, Method: method, Drivers: GatedTree, Controller: c})
			if err != nil {
				t.Fatal(err)
			}
			return evalSC(tree, c, p)
		}
		if sc(MinSwitchedCap) > sc(GreedyDistance)*1.02 {
			worse++
		}
	}
	if worse > 1 {
		t.Errorf("min-SC lost to distance greedy on %d of 6 seeds", worse)
	}
}

// evalSC mirrors power.Evaluate's total without importing it (avoiding a
// cycle in test-only code is unnecessary, but keeping core's tests
// self-contained documents the SC definition once more).
func evalSC(tr *topology.Tree, c *ctrl.Controller, p tech.Params) float64 {
	total := 0.0
	var walk func(n *topology.Node, domP float64)
	walk = func(n *topology.Node, domP float64) {
		if n.Driver != nil {
			total += n.Driver.Cin * domP
			if n.Gated() {
				domP = n.P
				loc := tr.Source
				if n.Parent != nil {
					loc = n.Parent.Loc
				}
				total += (p.CtrlWireCap(c.StarDist(loc)) + n.Driver.Cin) * n.Ptr
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
	walk(tr.Root, 1)
	return total
}

func TestValidation(t *testing.T) {
	p := tech.Default()
	good := makeInstance(t, 4, 1)

	t.Run("no sinks", func(t *testing.T) {
		in := *good
		in.SinkLocs, in.SinkCaps = nil, nil
		if _, _, err := Route(&in, Options{Tech: p}); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("mismatched caps", func(t *testing.T) {
		in := *good
		in.SinkCaps = in.SinkCaps[:2]
		if _, _, err := Route(&in, Options{Tech: p}); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("negative cap", func(t *testing.T) {
		in := *good
		in.SinkCaps = append([]float64{}, in.SinkCaps...)
		in.SinkCaps[0] = -5
		if _, _, err := Route(&in, Options{Tech: p}); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("empty die", func(t *testing.T) {
		in := *good
		in.Die = geom.Rect{}
		if _, _, err := Route(&in, Options{Tech: p}); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("gated without profile", func(t *testing.T) {
		in := *good
		in.Profile = nil
		if _, _, err := Route(&in, Options{Tech: p, Drivers: GatedTree}); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("profile too small", func(t *testing.T) {
		in := makeInstance(t, 4, 2)
		big := makeInstance(t, 8, 2)
		big.Profile = in.Profile // 4-module profile for 8 sinks
		if _, _, err := Route(big, Options{Tech: p, Drivers: GatedTree}); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("bad tech", func(t *testing.T) {
		bad := p
		bad.WireCapPerLambda = 0
		if _, _, err := Route(good, Options{Tech: bad, Method: NearestNeighbor, Drivers: BareTree}); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("ungated without profile is fine", func(t *testing.T) {
		in := *good
		in.Profile = nil
		if _, _, err := Route(&in, Options{Tech: p, Method: NearestNeighbor, Drivers: BareTree}); err != nil {
			t.Errorf("bare tree should not need a profile: %v", err)
		}
	})
}

func TestSingleSink(t *testing.T) {
	in := makeInstance(t, 1, 9)
	tree, stats, err := Route(in, Options{Tech: tech.Default(), Method: MinSwitchedCap, Drivers: GatedTree})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.IsSink() || stats.Merges != 0 {
		t.Error("single-sink tree must be the sink itself")
	}
	if tree.Root.EdgeLen != geom.Dist(tree.Source, tree.Root.Loc) {
		t.Error("root edge must span to the source")
	}
}

func TestSourceDefaultsToDieCenter(t *testing.T) {
	in := makeInstance(t, 8, 11)
	tree, _, err := Route(in, Options{Tech: tech.Default(), Method: NearestNeighbor, Drivers: BareTree})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Source != in.Die.Center() {
		t.Errorf("source = %v, want die center %v", tree.Source, in.Die.Center())
	}
	in.Source = geom.Pt(10, 10)
	tree2, _, err := Route(in, Options{Tech: tech.Default(), Method: NearestNeighbor, Drivers: BareTree})
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Source != in.Source {
		t.Error("explicit source must be respected")
	}
}

func TestBufferCapOption(t *testing.T) {
	in := makeInstance(t, 60, 12)
	p := tech.Default()
	count := func(bufferCap float64) int {
		tree, _, err := Route(in, Options{
			Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, BufferCap: bufferCap,
		})
		if err != nil {
			t.Fatal(err)
		}
		bufs := 0
		tree.Root.PreOrder(func(n *topology.Node) {
			if n.Driver != nil && !n.Gated() {
				bufs++
			}
		})
		return bufs
	}
	if n := count(-1); n != 0 {
		t.Errorf("BufferCap<0 must disable buffer insertion, got %d buffers", n)
	}
	loose, tight := count(2000), count(300)
	if tight <= loose {
		t.Errorf("lower BufferCap must insert more buffers: %d vs %d", tight, loose)
	}
}

// TestSizeDrivers: sizing must cut the phase delay of a driver-heavy tree
// while preserving zero skew, by stepping up overloaded gates.
func TestSizeDrivers(t *testing.T) {
	in := makeInstance(t, 80, 21)
	p := tech.Default()
	p.SizingTargetPs = 20 // aggressive target so the small test die exercises sizing
	base := Options{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree}
	sized := base
	sized.SizeDrivers = true

	tPlain, _, err := Route(in, base)
	if err != nil {
		t.Fatal(err)
	}
	tSized, _, err := Route(in, sized)
	if err != nil {
		t.Fatal(err)
	}
	aPlain := rctree.Analyze(tPlain, p)
	aSized := rctree.Analyze(tSized, p)
	if aSized.Skew > 1e-6*(1+aSized.MaxDelay) {
		t.Fatalf("sized tree lost zero skew: %v", aSized.Skew)
	}
	if aSized.MaxDelay >= aPlain.MaxDelay {
		t.Errorf("sizing should cut phase delay: %v vs %v", aSized.MaxDelay, aPlain.MaxDelay)
	}
	upsized := 0
	tSized.Root.PreOrder(func(n *topology.Node) {
		if n.Driver != nil && n.Driver.Cin > p.Gate.Cin {
			upsized++
		}
	})
	if upsized == 0 {
		t.Error("no driver was upsized")
	}
}

func TestMethodAndModeStrings(t *testing.T) {
	if MinSwitchedCap.String() != "min-switched-cap" ||
		NearestNeighbor.String() != "nearest-neighbor" ||
		GreedyDistance.String() != "greedy-distance" {
		t.Error("method names wrong")
	}
	if GatedTree.String() != "gated" || BufferedTree.String() != "buffered" || BareTree.String() != "bare" {
		t.Error("driver mode names wrong")
	}
	if MinClockCapOnly.String() != "min-clock-cap" {
		t.Error("MinClockCapOnly name wrong")
	}
	if Method(99).String() == "" || DriverMode(99).String() == "" {
		t.Error("unknown values must still render")
	}
}

// TestParallelDeterminism: worker count must not change the result.
func TestParallelDeterminism(t *testing.T) {
	in := makeInstance(t, 90, 31)
	base := Options{Tech: tech.Default(), Method: MinSwitchedCap, Drivers: GatedTree, Workers: 1}
	par := base
	par.Workers = 8
	t1, s1, err := Route(in, base)
	if err != nil {
		t.Fatal(err)
	}
	t2, s2, err := Route(in, par)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Wirelength() != t2.Wirelength() {
		t.Errorf("wirelength differs: %v vs %v", t1.Wirelength(), t2.Wirelength())
	}
	if s1.Merges != s2.Merges || s1.PairEvals != s2.PairEvals {
		t.Errorf("stats differ: %+v vs %+v", s1, s2)
	}
	var ids1, ids2 []int
	t1.Root.PreOrder(func(n *topology.Node) {
		if n.Gated() {
			ids1 = append(ids1, n.ID)
		}
	})
	t2.Root.PreOrder(func(n *topology.Node) {
		if n.Gated() {
			ids2 = append(ids2, n.ID)
		}
	})
	if len(ids1) != len(ids2) {
		t.Fatalf("gate sets differ: %v vs %v", ids1, ids2)
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("gate sets differ: %v vs %v", ids1, ids2)
		}
	}
}

// TestMMMBalancedDepth: the means-and-medians topology must be perfectly
// depth-balanced (⌈log2 N⌉).
func TestMMMBalancedDepth(t *testing.T) {
	in := makeInstance(t, 64, 41)
	tree, _, err := Route(in, Options{Tech: tech.Default(), Method: MeansAndMedians, Drivers: BareTree})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Root.Depth(); got != 6 {
		t.Errorf("depth = %d, want 6 for 64 sinks", got)
	}
	// Non-power-of-two: depth ⌈log2 90⌉ = 7.
	in2 := makeInstance(t, 90, 43)
	tree2, _, err := Route(in2, Options{Tech: tech.Default(), Method: MeansAndMedians, Drivers: BareTree})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree2.Root.Depth(); got != 7 {
		t.Errorf("depth = %d, want 7 for 90 sinks", got)
	}
}
