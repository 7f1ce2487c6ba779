// Package faultinject provides the deterministic fault-injection hooks the
// robustness tests use to corrupt the router's fast-path state in a
// controlled way: a poisoned pair-cost memo row, a poisoned heap entry, a
// NaN activity on a merged node, or an outright panic inside the merge
// loop. Each injector fires exactly once, at a seed-derived point of the
// construction, so every failure a test provokes is reproducible.
//
// Schedule extends the same idea to long-lived components: a seeded,
// rate-based firing pattern (exactly one firing per fixed-size event
// window) that the serving tier composes into sustained chaos runs —
// injected panics, errors and latency at a known, assertable rate.
//
// The hooks are nil-safe no-ops: a nil *Injector (the production
// configuration) costs one pointer test per call site and changes no
// behavior, keeping the fast path bit-identical to its test oracle. Each
// corruption fails the route with an error wrapping verify.ErrInvariant.
package faultinject

import (
	"math"
	"sync/atomic"
)

// Mode selects which fast-path structure the injector corrupts.
type Mode int

const (
	// None never fires.
	None Mode = iota
	// CorruptMemo poisons one pair-cost memo read with a negative cost,
	// exercising the read-side memo invariant.
	CorruptMemo
	// CorruptHeap poisons one heap push with a −Inf cost, exercising the
	// pop-side heap/best-table consistency invariant.
	CorruptHeap
	// CorruptActivity replaces one merged node's signal probability with
	// NaN, exercising the post-construction verifier.
	CorruptActivity
	// PanicMergeLoop panics inside the fast greedy's merge loop,
	// exercising the panic barrier that turns it into an invariant error.
	PanicMergeLoop
)

func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case CorruptMemo:
		return "corrupt-memo"
	case CorruptHeap:
		return "corrupt-heap"
	case CorruptActivity:
		return "corrupt-activity"
	case PanicMergeLoop:
		return "panic-merge-loop"
	}
	return "unknown"
}

// Plan says what to corrupt and when: the Nth eligible event (0-based)
// triggers the fault.
type Plan struct {
	Mode Mode
	Nth  int
}

// mix64 is splitmix64's finalizer: a cheap, well-distributed bijection
// used to derive deterministic trigger points from a seed.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NthFromSeed derives a deterministic trigger index in [0, span) from a
// seed, so a test can sweep injection points without hand-picking them.
func NthFromSeed(seed uint64, span int) int {
	if span <= 0 {
		return 0
	}
	return int(mix64(seed) % uint64(span))
}

// Schedule fires deterministically at an average rate of one event per
// Period draws: within every window of Period consecutive draws, exactly
// one — at a seed- and window-derived phase — returns true. Because the
// draw counter is atomic and the firing phase depends only on the window
// index, the *number* of firings over N draws is exactly N/Period (±1)
// regardless of how concurrent callers interleave, which is what makes
// chaos runs assertable: a test that sends 400 requests through a
// Period=50 schedule sees exactly 8 injected faults, every time.
//
// A nil *Schedule never fires, mirroring the nil-*Injector production
// no-op convention.
type Schedule struct {
	seed   uint64
	period uint64
	n      atomic.Int64
	fired  atomic.Int64
}

// NewSchedule returns a schedule firing once per period draws; period <= 0
// returns nil (never fires).
func NewSchedule(seed uint64, period int) *Schedule {
	if period <= 0 {
		return nil
	}
	return &Schedule{seed: seed, period: uint64(period)}
}

// Next consumes one draw and reports whether this is the window's firing
// point.
func (s *Schedule) Next() bool {
	if s == nil {
		return false
	}
	n := uint64(s.n.Add(1) - 1)
	window := n / s.period
	phase := mix64(s.seed^window) % s.period
	if n%s.period == phase {
		s.fired.Add(1)
		return true
	}
	return false
}

// Fired returns how many times the schedule has fired.
func (s *Schedule) Fired() int64 {
	if s == nil {
		return 0
	}
	return s.fired.Load()
}

// Draws returns how many events have been drawn.
func (s *Schedule) Draws() int64 {
	if s == nil {
		return 0
	}
	return s.n.Load()
}

// Injector counts eligible events down to the planned one and fires
// exactly once. The countdown is atomic, so hooks may be reached from the
// router's parallel scan workers.
type Injector struct {
	mode  Mode
	left  atomic.Int64
	fired atomic.Bool
}

// New returns an injector for the plan; a None plan returns nil (the
// production no-op configuration).
func New(p Plan) *Injector {
	if p.Mode == None {
		return nil
	}
	i := &Injector{mode: p.Mode}
	i.left.Store(int64(p.Nth) + 1)
	return i
}

// fire consumes one event of the given mode and reports whether this event
// is the planned one.
func (i *Injector) fire(m Mode) bool {
	if i == nil || i.mode != m {
		return false
	}
	if i.left.Add(-1) == 0 {
		i.fired.Store(true)
		return true
	}
	return false
}

// Fired reports whether the fault has been injected.
func (i *Injector) Fired() bool { return i != nil && i.fired.Load() }

// MemoCost filters a pair-cost memo read, returning a poisoned (negative)
// cost on the planned event.
func (i *Injector) MemoCost(cost float64) float64 {
	if i.fire(CorruptMemo) {
		return -1
	}
	return cost
}

// HeapCost filters a cost being pushed onto the pair heap, returning −Inf
// on the planned event.
func (i *Injector) HeapCost(cost float64) float64 {
	if i.fire(CorruptHeap) {
		return math.Inf(-1)
	}
	return cost
}

// MergedP filters a merged node's signal probability, returning NaN on the
// planned event.
func (i *Injector) MergedP(p float64) float64 {
	if i.fire(CorruptActivity) {
		return math.NaN()
	}
	return p
}

// CheckPanic panics on the planned event.
func (i *Injector) CheckPanic() {
	if i.fire(PanicMergeLoop) {
		panic("faultinject: injected merge-loop panic")
	}
}
