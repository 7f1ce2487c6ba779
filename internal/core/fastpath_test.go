package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/gating"
	"repro/internal/tech"
	"repro/internal/topology"
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
	for _, n := range []int{2, 3, 17, 70, 200} {
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
// version bumps or node death instead of returning them, and rescans a
// stale node whose lower bound reaches the top instead of returning it.
func TestLazyDeletion(t *testing.T) {
	in := makeInstance(t, 4, 1)
	r := &router{in: in, opts: Options{Tech: tech.Default(), Drivers: BareTree,
		Method: GreedyDistance}}
	sinks := r.makeSinks()
	g := r.newGreedyState(sinks)
	g.setBest(0, cand{partner: sinks[1], cost: 5})
	g.setBest(1, cand{partner: sinks[0], cost: 5})
	g.setBest(2, cand{partner: sinks[1], cost: 3})
	g.setBest(3, cand{partner: sinks[0], cost: 9})
	// Re-point node 0 at a higher cost: its old (5, 0) entry is obsolete.
	g.setBest(0, cand{partner: sinks[2], cost: 7})
	// Kill the pair (1, 3): their entries are dead, and node 2, which
	// named 1 as its partner, turns stale under a bound just below 3.
	g.kill(1, 3)
	if g.best[2].partner != nil || g.best[2].cost != 3 {
		t.Fatalf("node 2 not stale after its partner died: %+v", g.best[2])
	}
	got, err := r.popCheapest(g)
	if err != nil {
		t.Fatal(err)
	}
	// The only live partner left for node 2 is node 0, more than 7 λ
	// away: the rescan must price it exactly and keep node 0 on top.
	if g.best[2].partner != sinks[0] || g.best[2].cost <= 7 {
		t.Fatalf("stale node 2 not rescanned to its exact partner: %+v", g.best[2])
	}
	if r.idxSearches.Load() != 1 {
		t.Fatalf("%d index searches, want the one rescan", r.idxSearches.Load())
	}
	if got != sinks[0] {
		t.Fatalf("popCheapest returned node %d, want 0 at cost 7", got.ID)
	}
}

// TestPairCostNearlySymmetric pins the assumption behind staleMargin:
// pairCost(a, b) and pairCost(b, a) differ only by rounding, far inside
// the margin. The pairs come from routed trees — every node against a
// spread of others — under every Equation-3 configuration that prices
// drivers differently, on five placement shapes.
func TestPairCostNearlySymmetric(t *testing.T) {
	p := tech.Default()
	modes := []Options{
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree},
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, Policy: gating.All{}},
		{Tech: p, Method: MinClockCapOnly, Drivers: GatedTree},
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, SkewBoundPs: 50},
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, SizeDrivers: true},
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, BufferCap: 300},
	}
	kinds := []string{"uniform", "clustered", "ring", "dup", "line"}
	const n, partners = 300, 24
	rng := rand.New(rand.NewPCG(17, 29))
	pairs, asym, worst := 0, 0, 0.0
	for mi, opts := range modes {
		for ki, kind := range kinds {
			in := placedInstance(t, kind, n, 8, uint64(3000+10*mi+ki))
			tree, _, err := Route(in, opts)
			if err != nil {
				t.Fatal(err)
			}
			var nodes []*topology.Node
			tree.Root.PreOrder(func(v *topology.Node) { nodes = append(nodes, v) })
			r := newRouter(context.Background(), in, opts)
			for _, a := range nodes {
				for j := 0; j < partners; j++ {
					b := nodes[rng.IntN(len(nodes))]
					if b == a {
						continue
					}
					ab, err := r.pairCost(a, b)
					if err != nil {
						t.Fatal(err)
					}
					ba, err := r.pairCost(b, a)
					if err != nil {
						t.Fatal(err)
					}
					pairs++
					if ab == ba {
						continue
					}
					asym++
					rel := math.Abs(ab-ba) / math.Max(ab, ba)
					worst = math.Max(worst, rel)
					if rel > 1e-13 {
						t.Fatalf("opts %d %s: pairCost(%d, %d) = %v, pairCost(%d, %d) = %v: relative gap %.3g",
							mi, kind, a.ID, b.ID, ab, b.ID, a.ID, ba, rel)
					}
				}
			}
		}
	}
	t.Logf("%d pairs, %d asymmetric, worst relative gap %.3g (margin %g)", pairs, asym, worst, staleMargin)
}

// TestBoundsAdmissible checks every bound the pyramid walk prunes with
// against true pair costs, on the corpus TestPairCostNearlySymmetric
// builds: routed 300-sink trees, every node against random partners,
// under each gating-policy shape of the star modes and with 8, 32, 33 and
// 70 instructions. Neither stage of the record bound (parentP floored at
// max(P_q, P_m), then by the summed instruction words) and no region
// bound over any pyramid region holding the partner may dominate
// pairCost(q, m); the summed parentP floor may not exceed
// SignalProbUnion, and with at most 32 instructions must equal it.
func TestBoundsAdmissible(t *testing.T) {
	p := tech.Default()
	policies := []struct {
		name string
		pol  gating.Policy
	}{
		{"reduction", nil}, {"all", gating.All{}}, {"none", gating.None{}},
		{"opaque", opaqueReduction(p)},
	}
	kinds := []string{"uniform", "clustered", "ring"}
	const n, partners = 300, 12
	rng := rand.New(rand.NewPCG(23, 31))
	pairs, raised := 0, 0
	for pi, pc := range policies {
		for ki, k := range []int{8, 32, 33, 70} {
			kind := kinds[(pi+ki)%len(kinds)]
			in := placedInstance(t, kind, n, k, uint64(5000+10*pi+ki))
			opts := Options{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, Policy: pc.pol}
			tree, _, err := Route(in, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Index every node of the routed tree: sinks through
			// newGreedyState, merge nodes as the greedy enters them.
			nodes := make([]*topology.Node, 2*n-1)
			tree.Root.PreOrder(func(v *topology.Node) { nodes[v.ID] = v })
			r := newRouter(context.Background(), in, opts)
			g := r.newGreedyState(nodes[:n])
			for _, v := range nodes[n:] {
				g.byID[v.ID], g.alive[v.ID] = v, true
				r.indexAdd(g, v)
			}
			idx := g.idx
			for _, q := range nodes {
				qc := g.makeQuery(q.ID)
				for j := 0; j < partners; j++ {
					m := nodes[rng.IntN(len(nodes))]
					if m == q {
						continue
					}
					name := fmt.Sprintf("%s k=%d %s: pair (%d, %d)", pc.name, k, kind, q.ID, m.ID)
					cost, err := r.pairCost(q, m)
					if err != nil {
						t.Fatal(err)
					}
					pairs++
					mr := &g.recs[m.ID]
					pp0 := max(qc.rec.wf, mr.wf)
					pp := qc.ppFloor(pp0, mr.word)
					if union := in.Profile.SignalProbUnion(q.Instr, m.Instr); pp > union || (k <= 32 && pp != union) {
						t.Fatalf("%s: parentP floor %v, SignalProbUnion %v", name, pp, union)
					}
					if pp > pp0 {
						raised++
					}
					dlb := qc.recordDLB(mr)
					for stage, floor := range []float64{pp0, pp} {
						if lb := qc.floorLB(mr.zu, mr.wf, mr.gf, mr.a, dlb, floor); dominated(lb, cost) {
							t.Fatalf("%s: record bound stage %d = %v dominates pairCost %v", name, stage+1, lb, cost)
						}
					}
					ci, cj := idx.coords(mr.u, mr.w)
					for l := range idx.levels {
						lv := &idx.levels[l]
						rg := int32((cj>>lv.shift)*lv.cols + ci>>lv.shift)
						if lb := idx.regionLB(&qc, l, rg, idx.regionBD(&qc, l, rg)); dominated(lb, cost) {
							t.Fatalf("%s: level %d region bound %v dominates pairCost %v", name, l, lb, cost)
						}
					}
				}
			}
		}
	}
	t.Logf("%d pairs, summed parentP floor above max(P_q, P_m) on %d", pairs, raised)
	if raised == 0 {
		t.Fatal("the summed parentP floor never rose above max(P_q, P_m)")
	}
}
