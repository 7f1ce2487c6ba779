package core

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/topology"
	"repro/internal/verify"
)

// The all-pairs oracles of the pyramid-walking engines. Each schedule's
// production engine must match its oracle bit for bit: runGreedyReference
// for the four one-pair-at-a-time methods, runRoundsAllPairs for
// NearestNeighbor's rounds. Both are quadratic, so they check instances of
// a few thousand sinks at most.

// pairCost is the unpruned merge-ordering cost of joining a and b:
// pairCostGated under a threshold of +Inf, which never prunes, so every
// call solves the pair and counts one evaluation.
func (r *router) pairCost(a, b *topology.Node) (float64, error) {
	c, _, err := r.pairCostGated(a, b, math.Inf(1))
	return c, err
}

// runGreedyReference implements the one-pair-at-a-time schedule of the
// paper's pseudocode, ordered by pairCost (Equation 3 for MinSwitchedCap,
// sector distance for GreedyDistance, merged signal probability for
// ActivityDriven), with no caching or pruning: every best-partner search
// scans the whole active set, and every merge rescans the nodes that were
// paired with either merged node. It is the oracle the fast path in
// fastpath.go must match bit-for-bit.
func (r *router) runGreedyReference() (*topology.Node, error) {
	active := r.makeSinks()

	// best[n] is the cheapest partner for n among the currently active
	// nodes; the global minimum over best is the true cheapest pair.
	best := make(map[*topology.Node]cand, len(active))
	initial := make([]cand, len(active))
	if err := r.parallelForW(len(active), func(i, _ int) error {
		c, err := r.bestPartner(active[i], active)
		initial[i] = c
		return err
	}); err != nil {
		return nil, err
	}
	for i, n := range active {
		best[n] = initial[i]
	}

	for len(active) > 1 {
		a := r.cheapest(active, best)
		b := best[a].partner
		k, err := r.merge(a, b)
		if err != nil {
			return nil, err
		}
		r.stats.Merges++

		// Replace a, b with k in the active set.
		out := active[:0]
		for _, n := range active {
			if n != a && n != b {
				out = append(out, n)
			}
		}
		active = append(out, k)
		delete(best, a)
		delete(best, b)

		// Rescan nodes that were paired with a or b.
		var stale []*topology.Node
		for _, n := range active[:len(active)-1] {
			if p := best[n].partner; p == a || p == b {
				stale = append(stale, n)
			}
		}
		rescan := make([]cand, len(stale))
		if err := r.parallelForW(len(stale), func(i, _ int) error {
			c, err := r.bestPartner(stale[i], active)
			rescan[i] = c
			return err
		}); err != nil {
			return nil, err
		}
		for i, n := range stale {
			best[n] = rescan[i]
		}
		// Fold in k: its costs against every survivor give both its own
		// best partner and any improvements it offers them.
		others := active[:len(active)-1]
		costs := make([]float64, len(others))
		if err := r.parallelForW(len(others), func(i, _ int) error {
			c, err := r.pairCost(others[i], k)
			costs[i] = c
			return err
		}); err != nil {
			return nil, err
		}
		ck := cand{}
		found := false
		for i, n := range others {
			if !found || costs[i] < ck.cost || (costs[i] == ck.cost && n.ID < ck.partner.ID) {
				ck = cand{partner: n, cost: costs[i]}
				found = true
			}
			// Same tie rule as bestPartner: strictly cheaper, or equal cost
			// with the lower partner ID. (k carries the highest ID in the
			// active set, so the tie arm keeps the incumbent — stated
			// explicitly so both scans follow one order-independent rule.)
			if costs[i] < best[n].cost ||
				(costs[i] == best[n].cost && k.ID < best[n].partner.ID) {
				best[n] = cand{partner: k, cost: costs[i]}
			}
		}
		best[k] = ck
	}

	return active[0], nil
}

// cheapest returns the node whose cached pair is globally cheapest,
// breaking ties by node ID for determinism.
func (r *router) cheapest(active []*topology.Node, best map[*topology.Node]cand) *topology.Node {
	var pick *topology.Node
	for _, n := range active {
		c := best[n]
		if pick == nil || c.cost < best[pick].cost ||
			(c.cost == best[pick].cost && n.ID < pick.ID) {
			pick = n
		}
	}
	return pick
}

// bestPartner scans every other node of active for n's cheapest partner
// under the (cost, then partner ID) argmin.
func (r *router) bestPartner(n *topology.Node, active []*topology.Node) (cand, error) {
	out := cand{cost: 0}
	found := false
	for _, m := range active {
		if m == n {
			continue
		}
		cost, err := r.pairCost(n, m)
		if err != nil {
			return cand{}, err
		}
		if !found || cost < out.cost || (cost == out.cost && m.ID < out.partner.ID) {
			out = cand{partner: m, cost: cost}
			found = true
		}
	}
	return out, nil
}

// runRoundsAllPairs is the nearest-neighbour schedule with runRounds'
// pyramid walk replaced by the all-pairs nomination loop: every node of a
// round scans every other node of the round's starting set for the
// (distance, then partner ID) minimum. The oracle of the indexed rounds.
func (r *router) runRoundsAllPairs() (*topology.Node, error) {
	active := r.makeSinks()
	for len(active) > 1 {
		type pair struct {
			a, b *topology.Node
			d    float64
		}
		cands := make([]pair, 0, len(active))
		for i, n := range active {
			var best *topology.Node
			bestD := 0.0
			for j, m := range active {
				if i == j {
					continue
				}
				r.pairEvals.Add(1)
				if d := n.MS.Dist(m.MS); best == nil || d < bestD ||
					(d == bestD && m.ID < best.ID) {
					best, bestD = m, d
				}
			}
			cands = append(cands, pair{a: n, b: best, d: bestD})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].d != cands[j].d {
				return cands[i].d < cands[j].d
			}
			return cands[i].a.ID < cands[j].a.ID
		})
		used := make(map[*topology.Node]bool, len(active))
		var next []*topology.Node
		for _, c := range cands {
			if used[c.a] || used[c.b] {
				continue
			}
			k, err := r.merge(c.a, c.b)
			if err != nil {
				return nil, err
			}
			r.stats.Merges++
			used[c.a], used[c.b] = true, true
			next = append(next, k)
		}
		for _, n := range active {
			if !used[n] {
				next = append(next, n)
			}
		}
		active = next
	}
	return active[0], nil
}

// routeOracle routes in under opts with the all-pairs oracle of its
// method — runGreedyReference for the four one-pair-at-a-time methods,
// runRoundsAllPairs for NearestNeighbor — and finishes the tree through
// run's own tail, finish (root driver, embedding, validation), then the
// independent checker when opts.Verify is set. The Stats carry Merges,
// Snakes and the pair-evaluation counters.
func routeOracle(t testing.TB, in *Instance, opts Options) (*topology.Tree, Stats) {
	t.Helper()
	r := newRouter(context.Background(), in, opts)
	run := r.runGreedyReference
	if opts.Method == NearestNeighbor {
		run = r.runRoundsAllPairs
	}
	root, err := run()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := r.finish(root)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Verify {
		if err := verify.Tree(tree, opts.Tech, opts.SkewBoundPs); err != nil {
			t.Fatal(err)
		}
	}
	s := r.stats
	s.PairEvals = int(r.pairEvals.Load())
	s.PairEvalsSkipped = int(r.pairSkipped.Load())
	s.PairEvalsCached = int(r.pairCached.Load())
	return tree, s
}
