package activity

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/isa"
	"repro/internal/stream"
)

func mustProfile(t *testing.T, d *isa.Description, s stream.Stream) *Profile {
	t.Helper()
	p, err := NewProfile(d, s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProfileValidation(t *testing.T) {
	d := isa.PaperExample()
	if _, err := NewProfile(d, stream.Stream{0}); err == nil {
		t.Error("single-cycle stream must fail (no transitions)")
	}
	if _, err := NewProfile(d, stream.Stream{0, 9}); err == nil {
		t.Error("invalid stream must fail")
	}
}

// TestPaperWorkedExample asserts the concrete numbers of §3.2–3.3:
// P(M1)=0.75, P(EN{M5,M6})=0.55, P(I1→I3)=3/19, and cross-checks the
// table-driven probabilities against brute-force stream scans.
func TestPaperWorkedExample(t *testing.T) {
	d := isa.PaperExample()
	s := stream.PaperExample()
	p := mustProfile(t, d, s)

	if got := p.ModuleProb(0); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("P(M1) = %v, want 0.75", got)
	}
	en56 := p.SetForModules(4, 5)
	if got := p.SignalProb(en56); math.Abs(got-0.55) > 1e-12 {
		t.Errorf("P(EN{M5,M6}) = %v, want 0.55", got)
	}
	if got := p.PairProb(0, 2); math.Abs(got-3.0/19) > 1e-12 {
		t.Errorf("P(I1→I3) = %v, want 3/19", got)
	}
	// The enable's instruction set is exactly {I1, I3}.
	if !en56.Has(0) || en56.Has(1) || !en56.Has(2) || en56.Has(3) {
		t.Errorf("instruction set for {M5,M6} wrong: %v", en56)
	}
	// Ptr must agree with a direct scan of the stream.
	want := BruteTransProb(d, s, ModuleMask(6, 4, 5))
	if got := p.TransProb(en56); math.Abs(got-want) > 1e-12 {
		t.Errorf("Ptr(EN{M5,M6}) = %v, brute force %v", got, want)
	}
	if err := p.CheckConsistency(s, []int{4, 5}, 1e-12); err != nil {
		t.Error(err)
	}
}

func TestIFTSumsToOne(t *testing.T) {
	d := isa.PaperExample()
	p := mustProfile(t, d, stream.PaperExample())
	total := 0.0
	for k := 0; k < d.NumInstr(); k++ {
		total += p.Freq(k)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("IFT sums to %v", total)
	}
	pairTotal := 0.0
	for a := 0; a < d.NumInstr(); a++ {
		for b := 0; b < d.NumInstr(); b++ {
			pairTotal += p.PairProb(a, b)
		}
	}
	if math.Abs(pairTotal-1) > 1e-12 {
		t.Errorf("ITMAT sums to %v", pairTotal)
	}
}

func TestActivationTags(t *testing.T) {
	d := isa.PaperExample()
	p := mustProfile(t, d, stream.PaperExample())
	// Pair (I1, I2): M1 used by both → 11; M2 only by I1 → 10;
	// M4 only by I2 → 01; M6 by neither → 00.
	cases := []struct {
		m    int
		want AT
	}{
		{0, AT11}, {1, AT10}, {3, AT01}, {5, AT00},
	}
	for _, c := range cases {
		if got := p.Tag(0, 1, c.m); got != c.want {
			t.Errorf("AT(M%d) for I1→I2 = %v, want %v", c.m+1, got, c.want)
		}
	}
	if AT01.String() != "01" || AT10.String() != "10" {
		t.Error("AT String rendering wrong")
	}
}

func TestITMATRows(t *testing.T) {
	d := isa.PaperExample()
	s := stream.PaperExample()
	p := mustProfile(t, d, s)
	rows := p.ITMATRows()
	total := 0.0
	for _, r := range rows {
		if r.Prob <= 0 {
			t.Fatal("zero-probability row emitted")
		}
		if len(r.Tags) != 6 {
			t.Fatalf("row has %d tags", len(r.Tags))
		}
		total += r.Prob
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("ITMAT rows sum to %v", total)
	}
	// Row for (I1, I3) must exist with probability 3/19 (Table 3).
	found := false
	for _, r := range rows {
		if r.A == 0 && r.B == 2 {
			found = true
			if math.Abs(r.Prob-3.0/19) > 1e-12 {
				t.Errorf("row (I1,I3) prob %v, want 3/19", r.Prob)
			}
		}
	}
	if !found {
		t.Error("row (I1,I3) missing from ITMAT")
	}
}

// TestTableDrivenMatchesBruteForce is the core §3.3 claim: the single-scan
// tables reproduce the brute-force probabilities for every module subset.
func TestTableDrivenMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 20))
	d, err := isa.Generate(isa.GenConfig{NumModules: 24, NumInstr: 8, Usage: 0.4, Scatter: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.DefaultMarkov().Generate(d, 5000, rng)
	p := mustProfile(t, d, s)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.IntN(6)
		modules := make([]int, 0, n)
		for len(modules) < n {
			modules = append(modules, rng.IntN(24))
		}
		if err := p.CheckConsistency(s, modules, 1e-9); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUnionMonotonicity: P is monotone under union, and the union set's
// probability never exceeds the sum of its parts.
func TestUnionMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 40))
	d, err := isa.Generate(isa.GenConfig{NumModules: 30, NumInstr: 12, Usage: 0.3, Scatter: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.DefaultMarkov().Generate(d, 4000, rng)
	p := mustProfile(t, d, s)
	for trial := 0; trial < 200; trial++ {
		a := p.SetForModule(rng.IntN(30))
		b := p.SetForModule(rng.IntN(30))
		u := a.Clone()
		u.Or(b)
		pa, pb, pu := p.SignalProb(a), p.SignalProb(b), p.SignalProb(u)
		if pu < math.Max(pa, pb)-1e-12 {
			t.Fatalf("P not monotone: P(a)=%v P(b)=%v P(a∪b)=%v", pa, pb, pu)
		}
		if pu > pa+pb+1e-12 {
			t.Fatalf("P superadditive: P(a)=%v P(b)=%v P(a∪b)=%v", pa, pb, pu)
		}
	}
}

// TestTransProbBound: a signal with activity P can transition at most
// 2·min(P, 1−P) of the time (each 0→1 needs a matching 1→0); the pair-table
// version satisfies this up to the single-boundary edge effect.
func TestTransProbBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(50, 60))
	d, err := isa.Generate(isa.GenConfig{NumModules: 30, NumInstr: 12, Usage: 0.3, Scatter: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.DefaultMarkov().Generate(d, 4000, rng)
	p := mustProfile(t, d, s)
	slack := 2.0 / float64(len(s)-1) // boundary effect of a linear (non-cyclic) stream
	for trial := 0; trial < 200; trial++ {
		set := p.SetForModules(rng.IntN(30), rng.IntN(30))
		pr, tr := p.SignalProb(set), p.TransProb(set)
		if tr < 0 || tr > 1 {
			t.Fatalf("Ptr out of range: %v", tr)
		}
		if bound := 2*math.Min(pr, 1-pr) + slack; tr > bound+1e-12 {
			t.Fatalf("Ptr %v exceeds bound %v (P=%v)", tr, bound, pr)
		}
	}
}

func TestAvgModuleActivity(t *testing.T) {
	d := isa.PaperExample()
	p := mustProfile(t, d, stream.PaperExample())
	// Mean over modules of P(M): computed directly for cross-check.
	want := 0.0
	for m := 0; m < 6; m++ {
		want += BruteSignalProb(d, stream.PaperExample(), ModuleMask(6, m))
	}
	want /= 6
	if got := p.AvgModuleActivity(); math.Abs(got-want) > 1e-12 {
		t.Errorf("AvgModuleActivity = %v, want %v", got, want)
	}
}

func TestFullChipEnable(t *testing.T) {
	d := isa.PaperExample()
	p := mustProfile(t, d, stream.PaperExample())
	all := p.SetForModules(0, 1, 2, 3, 4, 5)
	// Every instruction uses some module, so the root enable is always on
	// and never transitions.
	if got := p.SignalProb(all); got != 1 {
		t.Errorf("root P = %v, want 1", got)
	}
	if got := p.TransProb(all); got != 0 {
		t.Errorf("root Ptr = %v, want 0", got)
	}
}

func TestEmptySet(t *testing.T) {
	d := isa.PaperExample()
	p := mustProfile(t, d, stream.PaperExample())
	empty := isa.NewBitset(4)
	if p.SignalProb(empty) != 0 || p.TransProb(empty) != 0 {
		t.Error("empty set must have zero P and Ptr")
	}
}
