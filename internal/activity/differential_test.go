package activity

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/isa"
	"repro/internal/stream"
)

// Differential tests for the word-parallel kernels: the optimized
// SignalProb, SignalProbUnion and TransProb must equal scalar per-bit
// evaluation bit-for-bit and agree with brute-force stream scans within
// sampling tolerance.

// scalarSignalProb is the original per-bit loop, kept as the bit-exact
// oracle for the word-parallel SignalProb.
func scalarSignalProb(p *Profile, s InstrSet) float64 {
	total := 0.0
	for k := 0; k < p.ISA.NumInstr(); k++ {
		if s.Has(k) {
			total += p.freq[k]
		}
	}
	return total
}

// scalarTransProb is the original O(K²) double loop over the ITMAT.
func scalarTransProb(p *Profile, s InstrSet) float64 {
	k := p.ISA.NumInstr()
	total := 0.0
	for a := 0; a < k; a++ {
		inA := s.Has(a)
		row := p.pair[a]
		for b := 0; b < k; b++ {
			if inA != s.Has(b) {
				total += row[b]
			}
		}
	}
	return total
}

func scalarSignalProbUnion(p *Profile, a, b InstrSet) float64 {
	total := 0.0
	for k := 0; k < p.ISA.NumInstr(); k++ {
		if a.Has(k) || b.Has(k) {
			total += p.freq[k]
		}
	}
	return total
}

// randomProfile generates an ISA with numInstr instructions and a sampled
// Markov stream; numInstr > 64 exercises the multi-word bitset paths.
func randomProfile(t *testing.T, seed uint64, numInstr int) (*Profile, stream.Stream) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0))
	d, err := isa.Generate(isa.GenConfig{
		NumModules: 40,
		NumInstr:   numInstr,
		Usage:      0.30,
		Scatter:    0.25,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.DefaultMarkov().Generate(d, 4000, rng)
	p, err := NewProfile(d, s)
	if err != nil {
		t.Fatal(err)
	}
	return p, s
}

func randomSet(rng *rand.Rand, k int, density float64) InstrSet {
	s := isa.NewBitset(k)
	for i := 0; i < k; i++ {
		if rng.Float64() < density {
			s.Set(i)
		}
	}
	return s
}

func TestWordParallelKernelsBitExact(t *testing.T) {
	for _, numInstr := range []int{16, 31, 64, 150} {
		p, _ := randomProfile(t, uint64(numInstr), numInstr)
		rng := rand.New(rand.NewPCG(7, uint64(numInstr)))
		for trial := 0; trial < 200; trial++ {
			density := rng.Float64()
			a := randomSet(rng, numInstr, density)
			b := randomSet(rng, numInstr, density)
			if got, want := p.SignalProb(a), scalarSignalProb(p, a); got != want {
				t.Fatalf("K=%d: SignalProb %v, scalar %v (must be bit-identical)",
					numInstr, got, want)
			}
			if got, want := p.SignalProbUnion(a, b), scalarSignalProbUnion(p, a, b); got != want {
				t.Fatalf("K=%d: SignalProbUnion %v, scalar %v", numInstr, got, want)
			}
			if got, want := p.TransProb(a), scalarTransProb(p, a); got != want {
				t.Fatalf("K=%d: TransProb %v, scalar %v (must be bit-identical)",
					numInstr, got, want)
			}
		}
		// Degenerate sets.
		empty := isa.NewBitset(numInstr)
		full := isa.NewBitset(numInstr)
		for i := 0; i < numInstr; i++ {
			full.Set(i)
		}
		for _, s := range []InstrSet{empty, full} {
			if got, want := p.SignalProb(s), scalarSignalProb(p, s); got != want {
				t.Fatalf("K=%d: SignalProb on degenerate set: %v vs %v", numInstr, got, want)
			}
			if got, want := p.TransProb(s), scalarTransProb(p, s); got != want {
				t.Fatalf("K=%d: TransProb on degenerate set: %v vs %v", numInstr, got, want)
			}
		}
	}
}

func TestOptimizedKernelsMatchBruteForce(t *testing.T) {
	p, s := randomProfile(t, 3, 24)
	rng := rand.New(rand.NewPCG(11, 0))
	for trial := 0; trial < 50; trial++ {
		nMods := 1 + rng.IntN(6)
		mods := make([]int, 0, nMods)
		seen := map[int]bool{}
		for len(mods) < nMods {
			m := rng.IntN(p.ISA.NumModules)
			if !seen[m] {
				seen[m] = true
				mods = append(mods, m)
			}
		}
		set := p.SetForModules(mods...)
		mask := ModuleMask(p.ISA.NumModules, mods...)
		if got, want := p.SignalProb(set), BruteSignalProb(p.ISA, s, mask); math.Abs(got-want) > 1e-9 {
			t.Fatalf("P mismatch for modules %v: table %v, brute %v", mods, got, want)
		}
		if got, want := p.TransProb(set), BruteTransProb(p.ISA, s, mask); math.Abs(got-want) > 1e-9 {
			t.Fatalf("Ptr mismatch for modules %v: table %v, brute %v", mods, got, want)
		}
	}
}
