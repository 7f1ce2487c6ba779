// Package activity implements §3 of the paper: computing the signal
// probability P(EN) and the transition probability Ptr(EN) of every gate
// enable signal from instruction statistics.
//
// A gate's enable is the OR of the activities of the modules below it, and a
// module is active in a cycle exactly when the cycle's instruction uses it.
// Scanning the instruction stream once yields two tables:
//
//   - IFT  (Instruction Frequency Table, Table 2): P(I_k) for each
//     instruction;
//   - ITMAT (Instruction-Transition Module-Activation Table, Table 3): the
//     probability of each consecutive instruction pair (I_a, I_b), together
//     with the per-module two-bit activation tags AT(M) derived from the RTL
//     description.
//
// After that single O(B) scan, any P(EN) is a sum over the instructions
// that use a module below the gate — O(K) — and any Ptr(EN) is a sum over
// instruction pairs whose membership in that set differs — O(K²). No
// rescanning, which is the paper's speed-up over RTL simulation.
package activity

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/stream"
)

// InstrSet identifies, for some subtree of the clock tree, the set of
// instructions that activate it: every instruction using at least one
// module (sink) under the subtree. The enable signal of the subtree's gate
// is on exactly when the current instruction is in the set, so InstrSet is
// the only state activity computations need — and it merges by bitwise OR
// when two subtrees merge.
type InstrSet = isa.Bitset

// Profile holds the tables extracted from one stream scan. P(EN) and
// Ptr(EN) of any instruction set are sums over them (SignalProb,
// TransProb); nothing is rescanned.
type Profile struct {
	ISA    *isa.Description
	Cycles int

	freq     []float64   // IFT: freq[k] = P(I_k)
	pair     [][]float64 // ITMAT: pair[a][b] = P(instr a followed by instr b)
	tailMask uint64      // valid-bit mask of the last bitset word
}

// finalize sets tailMask, which TransProb uses to complement the last
// word of a set. Called by every constructor.
func (p *Profile) finalize() {
	p.tailMask = ^uint64(0)
	if r := p.ISA.NumInstr() % 64; r != 0 {
		p.tailMask = 1<<uint(r) - 1
	}
}

// NewProfile scans the stream once (O(B)) and builds the IFT and ITMAT.
func NewProfile(d *isa.Description, s stream.Stream) (*Profile, error) {
	if err := s.Validate(d); err != nil {
		return nil, err
	}
	if len(s) < 2 {
		return nil, fmt.Errorf("activity: %w: stream must have at least two cycles", stream.ErrInvalid)
	}
	k := d.NumInstr()
	p := &Profile{ISA: d, Cycles: len(s)}
	p.freq = make([]float64, k)
	for i, c := range s.Counts(k) {
		p.freq[i] = float64(c) / float64(len(s))
	}
	p.pair = make([][]float64, k)
	pc := s.PairCounts(k)
	boundaries := float64(len(s) - 1)
	for a := 0; a < k; a++ {
		p.pair[a] = make([]float64, k)
		for b := 0; b < k; b++ {
			p.pair[a][b] = float64(pc[a][b]) / boundaries
		}
	}
	p.finalize()
	return p, nil
}

// NewProfileFromChain builds the exact activity tables of a stationary
// instruction-generating Markov chain, bypassing stream sampling entirely:
// the IFT is the stationary distribution π and the ITMAT is
// pair[a][b] = π[a]·T[a][b]. Useful for noise-free experiments and for
// validating sampled profiles.
func NewProfileFromChain(d *isa.Description, pi []float64, T [][]float64) (*Profile, error) {
	k := d.NumInstr()
	if len(pi) != k || len(T) != k {
		return nil, fmt.Errorf("activity: chain of size %d×%d for %d instructions", len(pi), len(T), k)
	}
	p := &Profile{ISA: d, Cycles: 0}
	p.freq = make([]float64, k)
	p.pair = make([][]float64, k)
	totalPi := 0.0
	for a := 0; a < k; a++ {
		if pi[a] < 0 {
			return nil, errors.New("activity: negative stationary probability")
		}
		totalPi += pi[a]
		if len(T[a]) != k {
			return nil, errors.New("activity: ragged transition matrix")
		}
		rowSum := 0.0
		p.freq[a] = pi[a]
		p.pair[a] = make([]float64, k)
		for b := 0; b < k; b++ {
			if T[a][b] < 0 {
				return nil, errors.New("activity: negative transition probability")
			}
			rowSum += T[a][b]
			p.pair[a][b] = pi[a] * T[a][b]
		}
		if math.Abs(rowSum-1) > 1e-9 {
			return nil, fmt.Errorf("activity: transition row %d sums to %v", a, rowSum)
		}
	}
	if math.Abs(totalPi-1) > 1e-9 {
		return nil, fmt.Errorf("activity: stationary distribution sums to %v", totalPi)
	}
	p.finalize()
	return p, nil
}

// Freq returns P(I_k) from the IFT.
func (p *Profile) Freq(k int) float64 { return p.freq[k] }

// PairProb returns the ITMAT probability of instruction a being followed by
// instruction b in consecutive cycles.
func (p *Profile) PairProb(a, b int) float64 { return p.pair[a][b] }

// SetForModules returns the InstrSet of a subtree containing the given
// modules: all instructions that use at least one of them. O(K·|modules|).
func (p *Profile) SetForModules(modules ...int) InstrSet {
	s := isa.NewBitset(p.ISA.NumInstr())
	for k := 0; k < p.ISA.NumInstr(); k++ {
		for _, m := range modules {
			if p.ISA.UsesModule(k, m) {
				s.Set(k)
				break
			}
		}
	}
	return s
}

// SetForModule returns the InstrSet of a single sink. O(K).
func (p *Profile) SetForModule(m int) InstrSet {
	return p.FillForModule(isa.NewBitset(p.ISA.NumInstr()), m)
}

// FillForModule sets, in s (SetWords words, all clear), the instructions
// that use module m and returns s, so a caller can keep sink sets in a
// slab of its own. O(K).
func (p *Profile) FillForModule(s InstrSet, m int) InstrSet {
	for k := 0; k < p.ISA.NumInstr(); k++ {
		if p.ISA.UsesModule(k, m) {
			s.Set(k)
		}
	}
	return s
}

// SetWords returns the number of uint64 words an instruction bitset of
// this profile occupies — the stride of a slab that holds one InstrSet
// per tree node.
func (p *Profile) SetWords() int { return (p.ISA.NumInstr() + 63) / 64 }

// SignalProb returns P(EN) for a subtree with instruction set s:
// the summed IFT frequency of the instructions in s (Equation 2). O(K).
//
// Word-parallel: set bits are walked via bits.TrailingZeros64 in ascending
// index order, so the floating-point additions happen in exactly the same
// sequence as a per-bit scan — results are bitwise identical.
func (p *Profile) SignalProb(s InstrSet) float64 {
	total := 0.0
	for w, word := range s {
		base := w << 6
		for ; word != 0; word &= word - 1 {
			total += p.freq[base+bits.TrailingZeros64(word)]
		}
	}
	return total
}

// SignalProbUnion returns P(EN) of the union a ∪ b without materializing
// the union — the inner loop of the router's pair-cost evaluation.
func (p *Profile) SignalProbUnion(a, b InstrSet) float64 {
	total := 0.0
	for w, word := range a {
		word |= b[w]
		base := w << 6
		for ; word != 0; word &= word - 1 {
			total += p.freq[base+bits.TrailingZeros64(word)]
		}
	}
	return total
}

// TransProb returns Ptr(EN) for a subtree with instruction set s: the
// probability that consecutive cycles differ in whether their instruction
// belongs to s — i.e. the OR of the activation tags over the subtree's
// modules is 01 or 10 (§3.3). O(K²) over the ITMAT.
//
// For each row a the inner sum runs over b with s.Has(b) != s.Has(a), and
// like SignalProb it walks those b in ascending order word-parallel, so
// the result is bitwise identical to the per-bit double loop.
func (p *Profile) TransProb(s InstrSet) float64 {
	k := p.ISA.NumInstr()
	last := len(s) - 1
	total := 0.0
	for a := 0; a < k; a++ {
		row := p.pair[a]
		if s.Has(a) {
			// Sum row[b] over b ∉ s.
			for w, word := range s {
				word = ^word
				if w == last {
					word &= p.tailMask
				}
				base := w << 6
				for ; word != 0; word &= word - 1 {
					total += row[base+bits.TrailingZeros64(word)]
				}
			}
		} else {
			// Sum row[b] over b ∈ s.
			for w, word := range s {
				base := w << 6
				for ; word != 0; word &= word - 1 {
					total += row[base+bits.TrailingZeros64(word)]
				}
			}
		}
	}
	return total
}

// ModuleProb returns P(M_m): the probability that module m is active.
func (p *Profile) ModuleProb(m int) float64 {
	return p.SignalProb(p.SetForModule(m))
}

// AvgModuleActivity returns the mean of P(M) over all modules — the average
// module activity of §5.2 (x-axis of Figure 4).
func (p *Profile) AvgModuleActivity() float64 {
	total := 0.0
	for m := 0; m < p.ISA.NumModules; m++ {
		total += p.ModuleProb(m)
	}
	return total / float64(p.ISA.NumModules)
}

// AT is the two-bit activation tag of a module across a consecutive
// instruction pair (§3): bit 1 = active in the current cycle, bit 0 =
// active in the next cycle.
type AT uint8

// Activation tag values, named as the paper writes them (current, next).
const (
	AT00 AT = 0 // idle → idle
	AT01 AT = 1 // idle → active (EN may rise)
	AT10 AT = 2 // active → idle (EN may fall)
	AT11 AT = 3 // active → active
)

func (t AT) String() string {
	return [...]string{"00", "01", "10", "11"}[t]
}

// Tag returns AT(M) for module m across the pair (a, b).
func (p *Profile) Tag(a, b, m int) AT {
	var t AT
	if p.ISA.UsesModule(a, m) {
		t |= 2
	}
	if p.ISA.UsesModule(b, m) {
		t |= 1
	}
	return t
}

// ITMATRow is one row of Table 3: an observed consecutive instruction pair,
// its probability, and the activation tag of every module.
type ITMATRow struct {
	Prob float64
	A, B int  // instruction indices
	Tags []AT // per-module activation tags
}

// ITMATRows materializes the non-zero rows of the ITMAT, ordered by (A, B),
// exactly as the paper prints Table 3.
func (p *Profile) ITMATRows() []ITMATRow {
	var rows []ITMATRow
	k := p.ISA.NumInstr()
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			if p.pair[a][b] == 0 {
				continue
			}
			row := ITMATRow{Prob: p.pair[a][b], A: a, B: b, Tags: make([]AT, p.ISA.NumModules)}
			for m := 0; m < p.ISA.NumModules; m++ {
				row.Tags[m] = p.Tag(a, b, m)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// --- Brute-force reference implementations (RTL-simulation style) ---
//
// These rescan the stream for every query, exactly as the paper's rejected
// brute-force method would. They exist to cross-validate the table-driven
// results and for the worked-example tests.

// BruteSignalProb counts the cycles whose instruction uses any module in
// modules, by scanning the stream. O(B·|modules|).
func BruteSignalProb(d *isa.Description, s stream.Stream, modules isa.Bitset) float64 {
	active := 0
	for _, k := range s {
		if d.UsesAny(k, modules) {
			active++
		}
	}
	return float64(active) / float64(len(s))
}

// BruteTransProb counts the cycle boundaries at which the subtree's enable
// (OR over modules) changes value, by scanning the stream. O(B·|modules|).
func BruteTransProb(d *isa.Description, s stream.Stream, modules isa.Bitset) float64 {
	if len(s) < 2 {
		return 0
	}
	flips := 0
	prev := d.UsesAny(s[0], modules)
	for _, k := range s[1:] {
		cur := d.UsesAny(k, modules)
		if cur != prev {
			flips++
		}
		prev = cur
	}
	return float64(flips) / float64(len(s)-1)
}

// ModuleMask converts module indices into an isa.Bitset over modules.
func ModuleMask(numModules int, modules ...int) isa.Bitset {
	b := isa.NewBitset(numModules)
	for _, m := range modules {
		b.Set(m)
	}
	return b
}

// CheckConsistency verifies table-driven probabilities against brute-force
// stream scans for the given module set; it returns an error describing the
// first discrepancy beyond tolerance. Used by tests and by the experiments
// binary as a self-check.
func (p *Profile) CheckConsistency(s stream.Stream, modules []int, tol float64) error {
	set := p.SetForModules(modules...)
	mask := ModuleMask(p.ISA.NumModules, modules...)
	if got, want := p.SignalProb(set), BruteSignalProb(p.ISA, s, mask); math.Abs(got-want) > tol {
		return fmt.Errorf("activity: P mismatch for %v: table %v, brute %v", modules, got, want)
	}
	if got, want := p.TransProb(set), BruteTransProb(p.ISA, s, mask); math.Abs(got-want) > tol {
		return fmt.Errorf("activity: Ptr mismatch for %v: table %v, brute %v", modules, got, want)
	}
	return nil
}
