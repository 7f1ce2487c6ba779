package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/gating"
	"repro/internal/tech"
)

// TestFastPathMatchesReferenceAllModes routes randomized instances under
// every greedy-driven configuration with the fast path and the reference
// greedy; the two must agree bit-for-bit.
func TestFastPathMatchesReferenceAllModes(t *testing.T) {
	p := tech.Default()
	optsList := []Options{
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, Policy: gating.All{}},
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree}, // default reduction
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, SkewBoundPs: 50},
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, SizeDrivers: true},
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, BufferCap: 300},
		{Tech: p, Method: MinClockCapOnly, Drivers: GatedTree},
		{Tech: p, Method: ActivityDriven, Drivers: GatedTree},
		{Tech: p, Method: GreedyDistance, Drivers: BareTree},
		{Tech: p, Method: GreedyDistance, Drivers: BufferedTree},
	}
	for _, n := range []int{2, 3, 17, 70} {
		in := makeInstance(t, n, uint64(1000+n))
		for oi, opts := range optsList {
			fastTree, fastStats, err := Route(in, opts)
			if err != nil {
				t.Fatalf("n=%d opts[%d]: fast path: %v", n, oi, err)
			}
			ref := opts
			ref.Reference = true
			refTree, refStats, err := Route(in, ref)
			if err != nil {
				t.Fatalf("n=%d opts[%d]: reference: %v", n, oi, err)
			}
			requireIdenticalTrees(t, opts.Method.String(), refTree, fastTree)
			if fastStats.Merges != refStats.Merges || fastStats.Snakes != refStats.Snakes {
				t.Errorf("n=%d opts[%d]: merge stats diverge: %+v vs %+v",
					n, oi, fastStats, refStats)
			}
			if fastStats.PairEvals > refStats.PairEvals {
				t.Errorf("n=%d opts[%d]: fast path evaluated more pairs (%d) than reference (%d)",
					n, oi, fastStats.PairEvals, refStats.PairEvals)
			}
		}
	}
}

// TestFastPathWorkersEquivalence exercises the parallel best-partner
// searches with Workers > 1 and checks the result and every counter are
// schedule-independent.
func TestFastPathWorkersEquivalence(t *testing.T) {
	in := makeInstance(t, 128, 77)
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
	requireIdenticalTrees(t, "workers", t1, t2)
	if s1.PairEvals != s2.PairEvals ||
		s1.PairEvalsSkipped != s2.PairEvalsSkipped ||
		s1.PairEvalsCached != s2.PairEvalsCached {
		t.Errorf("counters depend on worker count: %+v vs %+v", s1, s2)
	}
}

// TestFastPathStats checks the counters are wired and consistent: the memo
// and the pruner both fire, the hit rate is Cached/(Cached+Stores), and
// the spatial index accounts for every search.
func TestFastPathStats(t *testing.T) {
	in := makeInstance(t, 90, 5)
	_, s, err := Route(in, Options{Tech: tech.Default(), Method: MinSwitchedCap, Drivers: GatedTree})
	if err != nil {
		t.Fatal(err)
	}
	if s.PairEvalsSkipped == 0 {
		t.Error("lower-bound pruning never fired")
	}
	if s.PairEvalsCached == 0 {
		t.Error("pair-cost memo never hit")
	}
	if hr := s.CacheHitRate(); hr <= 0 || hr >= 1 {
		t.Errorf("cache hit rate %v outside (0,1)", hr)
	}
	// Regression: the rate is Cached/(Cached+Stores). Only lookups that
	// missed and filled the memo belong in the denominator; pruned
	// candidates never demand a memoizable merge solve, so
	// PairEvalsSkipped must not deflate it.
	if got, want := s.CacheHitRate(),
		float64(s.PairEvalsCached)/float64(s.PairEvalsCached+s.PairMemoStores); got != want {
		t.Errorf("cache hit rate %v, want Cached/(Cached+Stores) = %v", got, want)
	}
	if wrong := float64(s.PairEvalsCached) /
		float64(s.PairEvalsCached+s.PairMemoStores+s.PairEvalsSkipped); s.CacheHitRate() <= wrong {
		t.Errorf("hit rate %v not above the skip-deflated ratio %v — denominator regressed",
			s.CacheHitRate(), wrong)
	}
	if s.PhaseInit <= 0 || s.PhaseGreedy <= 0 || s.PhaseEmbed <= 0 {
		t.Errorf("phase timings not recorded: %+v", s)
	}
	// Every geometric route searches the spatial index, 90 sinks included:
	// its counters must be populated and the neighborhood histogram must
	// account for every search exactly once.
	if s.IndexSearches == 0 || s.IndexCandidates == 0 {
		t.Errorf("indexed run recorded no searches/candidates: %+v", s)
	}
	if s.IndexCandidates < s.IndexSearches {
		t.Errorf("%d candidates over %d searches — counter wiring broken",
			s.IndexCandidates, s.IndexSearches)
	}
	histTotal := 0
	for _, n := range s.IndexNeighborhood {
		histTotal += n
	}
	if histTotal != s.IndexSearches {
		t.Errorf("neighborhood histogram sums to %d, want IndexSearches = %d",
			histTotal, s.IndexSearches)
	}

	ref := Options{Tech: tech.Default(), Method: MinSwitchedCap, Drivers: GatedTree, Reference: true}
	_, rs, err := Route(in, ref)
	if err != nil {
		t.Fatal(err)
	}
	if rs.PairEvalsSkipped != 0 || rs.PairEvalsCached != 0 {
		t.Errorf("reference path must not prune or cache: %+v", rs)
	}
	if s.PairEvals >= rs.PairEvals {
		t.Errorf("fast path solved %d merges vs reference %d — no savings", s.PairEvals, rs.PairEvals)
	}
}

// TestPairHeap unit-tests the lazy-deletion heap: (cost, ID) ordering and
// version-based invalidation.
func TestPairHeap(t *testing.T) {
	var h pairHeap
	rng := rand.New(rand.NewPCG(3, 9))
	type key struct {
		cost float64
		id   int32
	}
	var keys []key
	for i := 0; i < 500; i++ {
		k := key{cost: float64(rng.IntN(50)), id: int32(rng.IntN(1000))}
		keys = append(keys, k)
		h.push(heapEntry{cost: k.cost, id: k.id, ver: 1})
	}
	var prev key
	for i := range keys {
		e := h.pop()
		got := key{cost: e.cost, id: e.id}
		if i > 0 && (got.cost < prev.cost || (got.cost == prev.cost && got.id < prev.id)) {
			t.Fatalf("heap order violated: %+v after %+v", got, prev)
		}
		prev = got
	}
	if len(h) != 0 {
		t.Fatalf("%d entries left after draining", len(h))
	}
}

// TestLazyDeletion checks popCheapest discards entries invalidated by
// version bumps or node death instead of returning them.
func TestLazyDeletion(t *testing.T) {
	in := makeInstance(t, 3, 1)
	r := &router{in: in, opts: Options{Tech: tech.Default(), Drivers: BareTree,
		Method: GreedyDistance}}
	sinks := r.makeSinks()
	g := r.newGreedyState(sinks)
	g.setBest(0, cand{partner: sinks[1], cost: 5})
	g.setBest(1, cand{partner: sinks[0], cost: 5})
	g.setBest(2, cand{partner: sinks[0], cost: 9})
	// Re-point node 0 at a higher cost: its old (5, 0) entry is stale.
	g.setBest(0, cand{partner: sinks[2], cost: 7})
	// Kill node 1: its (5, 1) entry is dead.
	g.kill(1)
	got, err := g.popCheapest()
	if err != nil {
		t.Fatal(err)
	}
	if got != sinks[0] {
		t.Fatalf("popCheapest returned node %d, want 0 at cost 7", got.ID)
	}
}
