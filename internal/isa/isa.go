// Package isa models the processor description the paper's activity
// analysis consumes: a set of modules (the clock sinks), a set of
// instructions, and the RTL usage table that maps every instruction to the
// modules it exercises (Table 1 of the paper).
//
// The benchmark processors of the paper are synthetic — the authors generate
// instruction streams "according to a probabilistic model of the CPU" — so
// this package also provides the generator for such synthetic ISAs. Real
// programs exhibit *spatial* locality (an instruction exercises a cluster of
// related datapath modules) which the generator reproduces by giving each
// instruction a contiguous window of modules plus a scattered remainder.
package isa

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"strings"
)

// Description is an RTL description of a processor: NumModules datapath
// modules and, for each instruction, the set of modules it uses.
type Description struct {
	NumModules int
	Names      []string // optional instruction names; len 0 or NumInstr
	uses       [][]int  // uses[k] = sorted module indices used by instruction k
	mask       []Bitset // mask[k] = same as a bitset over modules
}

// Bitset is a fixed-capacity bitset over module or instruction indices.
type Bitset []uint64

// NewBitset returns a bitset able to hold n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Has reports whether bit i is set.
func (b Bitset) Has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Or sets b = b | o. The two bitsets must have the same capacity.
func (b Bitset) Or(o Bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// Intersects reports whether b and o share any set bit.
func (b Bitset) Intersects(o Bitset) bool {
	for i := range b {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a copy of b.
func (b Bitset) Clone() Bitset {
	c := make(Bitset, len(b))
	copy(c, b)
	return c
}

// MaxModules and MaxInstr bound the accepted ISA size — far above any real
// processor, but small enough that a corrupt count in a serialized
// benchmark cannot drive allocation.
const (
	MaxModules = 1 << 20
	MaxInstr   = 1 << 16
)

// New builds a Description from explicit usage lists. uses[k] lists the
// module indices exercised by instruction k; duplicates are ignored.
func New(numModules int, uses [][]int) (*Description, error) {
	if numModules <= 0 {
		return nil, errors.New("isa: need at least one module")
	}
	if numModules > MaxModules {
		return nil, fmt.Errorf("isa: %d modules exceeds limit %d", numModules, MaxModules)
	}
	if len(uses) == 0 {
		return nil, errors.New("isa: need at least one instruction")
	}
	if len(uses) > MaxInstr {
		return nil, fmt.Errorf("isa: %d instructions exceeds limit %d", len(uses), MaxInstr)
	}
	d := &Description{NumModules: numModules}
	for k, list := range uses {
		m := NewBitset(numModules)
		for _, mod := range list {
			if mod < 0 || mod >= numModules {
				return nil, fmt.Errorf("isa: instruction %d uses out-of-range module %d", k, mod)
			}
			m.Set(mod)
		}
		var sorted []int
		for mod := 0; mod < numModules; mod++ {
			if m.Has(mod) {
				sorted = append(sorted, mod)
			}
		}
		d.uses = append(d.uses, sorted)
		d.mask = append(d.mask, m)
	}
	return d, nil
}

// MustNew is New that panics on error, for tests and literals.
func MustNew(numModules int, uses [][]int) *Description {
	d, err := New(numModules, uses)
	if err != nil {
		panic(err)
	}
	return d
}

// NumInstr returns the number of instructions K.
func (d *Description) NumInstr() int { return len(d.uses) }

// Uses returns the sorted module indices used by instruction k. The caller
// must not modify the returned slice.
func (d *Description) Uses(k int) []int { return d.uses[k] }

// UsesModule reports whether instruction k exercises module m.
func (d *Description) UsesModule(k, m int) bool { return d.mask[k].Has(m) }

// UsesAny reports whether instruction k exercises any module in the set.
func (d *Description) UsesAny(k int, modules Bitset) bool {
	return d.mask[k].Intersects(modules)
}

// AvgUsage returns the mean fraction of modules used per instruction —
// Ave(M(I)) of Table 4 in the paper (uniform over instructions; see
// stream.Stats for the stream-weighted version).
func (d *Description) AvgUsage() float64 {
	total := 0
	for k := range d.uses {
		total += len(d.uses[k])
	}
	return float64(total) / float64(len(d.uses)*d.NumModules)
}

// Name returns the display name of instruction k.
func (d *Description) Name(k int) string {
	if k < len(d.Names) && d.Names[k] != "" {
		return d.Names[k]
	}
	return fmt.Sprintf("I%d", k+1)
}

// String renders the RTL description in the style of Table 1 of the paper.
func (d *Description) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ISA: %d instructions, %d modules\n", d.NumInstr(), d.NumModules)
	for k := range d.uses {
		fmt.Fprintf(&sb, "  %-6s:", d.Name(k))
		for _, m := range d.uses[k] {
			fmt.Fprintf(&sb, " M%d", m+1)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// GenConfig parameterizes synthetic ISA generation.
type GenConfig struct {
	NumModules int     // number of datapath modules (= clock sinks)
	NumInstr   int     // number of instructions K
	Usage      float64 // target fraction of modules used per instruction (paper: ≈0.40)
	Scatter    float64 // fraction of each instruction's modules drawn at random
	// instead of from its contiguous window; 0 = fully clustered ISA,
	// 1 = fully random module sets.
}

// Validate checks the generation parameters.
func (g GenConfig) Validate() error {
	switch {
	case g.NumModules <= 0 || g.NumInstr <= 0:
		return errors.New("isa: NumModules and NumInstr must be positive")
	case g.NumModules > MaxModules || g.NumInstr > MaxInstr:
		return fmt.Errorf("isa: ISA size %d×%d exceeds limits %d×%d",
			g.NumInstr, g.NumModules, MaxInstr, MaxModules)
	case math.IsNaN(g.Usage) || math.IsNaN(g.Scatter):
		return errors.New("isa: Usage and Scatter must not be NaN")
	case g.Usage <= 0 || g.Usage > 1:
		return errors.New("isa: Usage must be in (0, 1]")
	case g.Scatter < 0 || g.Scatter > 1:
		return errors.New("isa: Scatter must be in [0, 1]")
	}
	return nil
}

// Generate builds a synthetic ISA. Instruction k's module set is a
// contiguous window (with wrap-around) of the module index space, anchored
// proportionally to k, with a Scatter fraction of the members replaced by
// uniformly random modules. Adjacent instruction indices therefore share
// most of their modules — the spatial-locality structure that gives real
// gated clock trees their low enable-transition probabilities.
func Generate(cfg GenConfig, rng *rand.Rand) (*Description, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, k := cfg.NumModules, cfg.NumInstr
	per := int(cfg.Usage*float64(n) + 0.5)
	if per < 1 {
		per = 1
	}
	if per > n {
		per = n
	}
	uses := make([][]int, k)
	for i := 0; i < k; i++ {
		seen := NewBitset(n)
		var list []int
		add := func(m int) {
			if !seen.Has(m) {
				seen.Set(m)
				list = append(list, m)
			}
		}
		nScatter := int(cfg.Scatter*float64(per) + 0.5)
		nWindow := per - nScatter
		// Window anchored at this instruction's slot in module space, with a
		// small jitter so windows of different instructions interleave.
		anchor := 0
		if k > 1 {
			anchor = (i*n)/k + rng.IntN(n/k+1)
		}
		for j := 0; j < nWindow; j++ {
			add((anchor + j) % n)
		}
		for len(list) < per {
			add(rng.IntN(n))
		}
		uses[i] = list
	}
	return New(n, uses)
}

// PaperExample returns the 4-instruction, 6-module RTL description of
// Table 1 in the paper:
//
//	I1: M1 M2 M3 M5
//	I2: M1 M4
//	I3: M2 M5 M6
//	I4: M3 M4
func PaperExample() *Description {
	d := MustNew(6, [][]int{
		{0, 1, 2, 4},
		{0, 3},
		{1, 4, 5},
		{2, 3},
	})
	d.Names = []string{"I1", "I2", "I3", "I4"}
	return d
}
