// The fast path of the one-pair-at-a-time greedy (PROCEDURE
// GatedClockRouting) for every one-pair-at-a-time method (MinSwitchedCap,
// MinClockCapOnly, GreedyDistance, ActivityDriven). Five layers accelerate
// the schedule without changing a single output bit relative to the
// all-pairs reference greedy, which lives in the test oracle file
// (oracle_test.go, runGreedyReference) next to the nearest-neighbour
// rounds oracle:
//
//  1. Pair-cost memo. The pair cost of (a, b) is a pure function of the
//     two (immutable once created) nodes, so every evaluated cost is
//     stored in a bounded per-node row keyed by partner ID and a later
//     best-partner search is served from the memo instead of re-solving
//     the zero-skew merge. Rows are keyed owner-first — the cost is not
//     exactly symmetric under floating point, and the reference always
//     evaluates (owner, partner) in that order.
//  2. Lazy-deletion min-heap. The reference's cheapest() is a linear scan
//     over the active set every iteration; here every best-partner update
//     pushes a versioned entry and obsolete entries are discarded on pop.
//     The heap order (cost, then node ID) is exactly cheapest()'s tie rule.
//  3. Lazy rescans. The reference rescans every node whose cheapest
//     partner was just merged away. Here such an orphan turns stale: it
//     keeps the lost pair's cost as a lower bound on its next cost and
//     waits in the heap under that bound (lowered by staleMargin), and
//     popCheapest rescans it only when it reaches the top (DESIGN.md §7.1).
//  4. Admissible lower bounds. Before solving BoundedSkewMerge for a
//     candidate, two bounds — zero-length edges plus the joining distance
//     charged at the cheaper branch's activity weight — are compared
//     against the running best: first the record bound (spatial.go),
//     from the candidate's cache-resident record alone, which takes the
//     cheaper gating arm of each side and a floor on the merged enable's
//     signal probability; then pairCostGated's, with the real gating
//     decision and the exact merged enable. WireCap is linear in length
//     and la+lb ≥ dist(ms(a), ms(b)), so neither bound exceeds the true
//     Equation-3 cost; candidates they dominate are skipped (counted in
//     Stats.PairEvalsSkipped) without affecting the selected pair.
//  5. Spatial index (spatial.go). Candidates come from nearest-first walks
//     of a quadtree pyramid over the merging segments, whatever the
//     instance size, and reverse-dependent lists find the nodes a merge
//     orphans without scanning the active set.
package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/dme"
	"repro/internal/faultinject"
	"repro/internal/topology"
	"repro/internal/verify"
)

// invariantf builds a fast-path invariant error; it wraps
// verify.ErrInvariant so callers classify construction corruption
// uniformly with post-construction verification failures.
func invariantf(format string, args ...any) error {
	return fmt.Errorf("core: %w: %s", verify.ErrInvariant, fmt.Sprintf(format, args...))
}

// dominated reports whether lower bound lb proves a candidate cannot beat
// or tie the running best cost thr. The relative margin keeps the test
// conservative against the rounding of lb's own computation: a skipped
// candidate is always strictly worse than thr, so pruning can change
// neither the selected pair nor any tie-break.
func dominated(lb, thr float64) bool {
	return lb > thr+1e-12*math.Abs(thr)
}

// staleMargin is the relative amount by which a stale node's heap key and
// fold-in threshold sit below its lost pair's cost. The lost cost bounds
// the orphan's next cost exactly when the cached pair was evaluated
// owner-first; a merge node's initial pair was evaluated partner-first
// (the fold-in prices (partner, k)), and the two orders differ
// by rounding, which TestPairCostNearlySymmetric pins at ≤ 1e-13
// relative, far inside the margin.
const staleMargin = 1e-12

// staleKey is the lower bound a stale node with lost pair cost c waits
// under: no live partner can cost it less.
func staleKey(c float64) float64 {
	return c - staleMargin*math.Abs(c)
}

// key is node id's current heap key: its cached pair cost, or staleKey of
// the lost pair's cost while the node is stale.
func (g *greedyState) key(id int32) float64 {
	b := g.best[id]
	if b.partner == nil {
		return staleKey(b.cost)
	}
	return b.cost
}

// heapEntry is one versioned candidate in the lazy-deletion heap.
type heapEntry struct {
	cost float64
	id   int32  // node ID owning the entry
	ver  uint32 // version of best[id] when pushed
}

// pairHeap is a hand-rolled binary min-heap ordered by (cost, id) — the
// exact tie rule of the reference cheapest() scan.
type pairHeap []heapEntry

func (h pairHeap) less(i, j int) bool {
	if h[i].cost != h[j].cost {
		return h[i].cost < h[j].cost
	}
	return h[i].id < h[j].id
}

func (h *pairHeap) push(e heapEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *pairHeap) pop() heapEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && s.less(l, m) {
			m = l
		}
		if r < len(s) && s.less(r, m) {
			m = r
		}
		if m == i {
			return top
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// memoEntry is one memoized pair cost in a compact per-neighborhood row:
// the partner ID and the pair cost of (owner, partner). Rows are bounded
// (memoRowCap) — the cost is a pure function of two immutable nodes, so
// evicting an entry can only cost a re-evaluation, never change a value.
type memoEntry struct {
	partner int32
	cost    float64
}

// memoRowCap bounds a compact memo row. Ring searches rarely emit more
// candidates than this; when they do, dead entries are compacted out and
// then the oldest entry is evicted.
const memoRowCap = 48

// greedyState is the bookkeeping of the fast greedy, indexed by node ID
// (IDs are dense: 0..n-1 for sinks, then one per merge). Candidates are
// generated from the spatial grid and pair costs memoized into bounded
// compact rows, keeping total memory linear in the instance size.
//
// A live node is stale when best[id].partner is nil: its cached partner
// was merged away and best[id].cost still holds that lost pair's cost.
// A stale node sits in no dependent list; its current heap entry carries
// key(id).
type greedyState struct {
	byID  []*topology.Node
	best  []cand
	ver   []uint32
	alive []bool
	heap  pairHeap
	fi    *faultinject.Injector // nil in production

	idx    *spatialIndex
	rows   [][]memoEntry // compact memo rows: rows[owner] holds the costs of (owner, ·)
	deps   [][]int32     // deps[p] = IDs whose best partner is p
	depPos []int32       // position of id within deps[best[id].partner]

	// recs[id] is node id's candidate record: its rotated merging-segment
	// midpoint and radius, the unconditional zero-length-edge cost floor
	// (zu — includes the control-star term when the §4.3 forced-insertion
	// rule pins the edge to a gate), the per-λ wire-weight floor and the
	// star modes' per-arm partner floors. Filled once per node at
	// registration; the grid cells hold copies, so the hot filter streams
	// contiguous records instead of reading TRRs and interface calls.
	recs []candRec

	// Per-worker best-partner walkers, the serial fold-in walker, and the
	// grid scratch that pools every grid allocation across rebuilds.
	scratch []searchScratch
	fold    walker
	gridScr *spatialScratch

	// Gating-policy shape resolved at attachIndex (polMode) plus the
	// scalars the zu fill rule needs: the per-λ weight of the joining
	// distance (the clock wire capacitance; polAct's tie-break weight
	// 1e-6/dieSpan) and the forced-insertion threshold (polReduce only),
	// and the IFT entries the parentP floor sums.
	polMode  int
	cWire    float64
	forceCap float64
	freq     lowFreq

	// stores counts memo writes — the memo-eligible misses that form the
	// cache-hit-rate denominator. Owned by the router during routing.
	stores *atomic.Int64
}

// newGreedyState sizes the per-ID tables for the 2n−1 nodes a run creates
// and builds the spatial index over the sinks.
func (r *router) newGreedyState(sinks []*topology.Node) *greedyState {
	capIDs := 2*len(sinks) - 1
	g := &greedyState{
		byID:   make([]*topology.Node, capIDs),
		best:   make([]cand, capIDs),
		ver:    make([]uint32, capIDs),
		alive:  make([]bool, capIDs),
		heap:   make(pairHeap, 0, 4*len(sinks)),
		fi:     r.opts.FaultInject,
		stores: &r.memoStores,
	}
	for _, n := range sinks {
		g.byID[n.ID] = n
		g.alive[n.ID] = true
	}
	r.attachIndex(g, sinks)
	return g
}

// setBest records n's cheapest partner and pushes a fresh heap entry;
// older entries for the node become obsolete via the version counter. It
// also maintains the reverse-dependent lists and the index's monotone
// best-cost maxima, and clears a stale mark. Must be called from the
// serial sections only.
func (g *greedyState) setBest(id int, c cand) {
	if old := g.best[id].partner; old != nil && g.alive[old.ID] {
		g.depRemove(old.ID, int32(id))
	}
	if c.partner != nil {
		g.depAdd(c.partner.ID, int32(id))
	}
	g.idx.noteBest(int32(id), c.cost)
	g.best[id] = c
	g.ver[id]++
	g.heap.push(heapEntry{cost: g.fi.HeapCost(c.cost), id: int32(id), ver: g.ver[id]})
}

// depAdd records that node id's best partner is partnerID.
func (g *greedyState) depAdd(partnerID int, id int32) {
	g.depPos[id] = int32(len(g.deps[partnerID]))
	g.deps[partnerID] = append(g.deps[partnerID], id)
}

// depRemove unlinks id from partnerID's dependent list by swap-removal.
func (g *greedyState) depRemove(partnerID int, id int32) {
	l := g.deps[partnerID]
	last := int32(len(l)) - 1
	p := g.depPos[id]
	moved := l[last]
	l[p] = moved
	g.depPos[moved] = p
	g.deps[partnerID] = l[:last]
}

// orphan marks live node id stale after its cached partner died: it keeps
// the lost pair's cost and goes back on the heap under staleKey of it. The
// caller drops the dying partner's dependent list wholesale, so id is not
// unlinked from it.
func (g *greedyState) orphan(id int32) {
	g.best[id].partner = nil
	g.ver[id]++
	g.heap.push(heapEntry{cost: g.fi.HeapCost(g.key(id)), id: id, ver: g.ver[id]})
}

// kill retires the merged pair a, b: every other node whose cached partner
// was a or b is orphaned, and each dying node leaves the dependent list of
// its surviving partner and leaves the grid. a keeps its memo row and
// dependent list for the merge node to inherit (indexAdd); b's are
// dropped.
func (g *greedyState) kill(a, b int) {
	g.alive[a], g.alive[b] = false, false
	for _, id := range [2]int{a, b} {
		if p := g.best[id].partner; p != nil && g.alive[p.ID] {
			g.depRemove(p.ID, int32(id))
		}
		for _, d := range g.deps[id] {
			if g.alive[d] {
				g.orphan(d)
			}
		}
		g.best[id] = cand{}
		g.idx.remove(int32(id))
	}
	g.rows[b], g.deps[b] = nil, nil
}

// memoRowInit and depInit are the initial capacities of a sink's compact
// memo row and reverse-dependent list: the per-sink carve widths of the
// two slabs attachIndex lays out.
const (
	memoRowInit = 16
	depInit     = 8
)

// popCheapest returns the live node whose cached pair is globally
// cheapest, discarding heap entries invalidated by merges or newer pushes.
// A stale node's entry is a lower bound, so when one reaches the top the
// node is rescanned and re-pushed at its exact cost; a fresh entry is
// returned only once no stale bound sorts below it in (cost, then ID)
// order, which makes it the reference cheapest()'s pick. Every current
// entry must agree with the best table (staleKey of it for a stale node)
// and carry a sane cost — Equation-3 costs and sector distances are always
// finite and non-negative — and a rescan may never land below its stale
// bound, so any mismatch means the heap or the table is corrupt.
func (r *router) popCheapest(g *greedyState) (*topology.Node, error) {
	for len(g.heap) > 0 {
		e := g.heap.pop()
		if !g.alive[e.id] || g.ver[e.id] != e.ver {
			continue
		}
		b := g.best[e.id]
		want := g.key(e.id)
		switch {
		case e.cost != want || !(e.cost >= 0) || math.IsInf(e.cost, 1):
			return nil, invariantf("heap entry for node %d has cost %v, best table says %v",
				e.id, e.cost, want)
		case b.partner == nil:
			c, err := r.bestPartnerIndexed(g, g.byID[e.id], 0)
			if err != nil {
				return nil, err
			}
			if c.cost < e.cost {
				return nil, invariantf("node %d rescanned to cost %v, below its stale bound %v",
					e.id, c.cost, e.cost)
			}
			g.setBest(int(e.id), c)
			continue
		case !g.alive[b.partner.ID]:
			return nil, invariantf("node %d's cached partner is not alive", e.id)
		}
		return g.byID[e.id], nil
	}
	return nil, invariantf("pair heap exhausted with live nodes remaining")
}

func (g *greedyState) memoGet(owner, partner int) (float64, bool) {
	for _, e := range g.rows[owner] {
		if e.partner == int32(partner) {
			return e.cost, true
		}
	}
	return 0, false
}

// memoSet stores a cost in the owner's bounded row; a full row compacts
// dead partners out and then evicts its oldest entry. Rows are only
// touched by the goroutine that owns the row's node in the initial
// parallel scan, so no locking is needed (alive is read-only there).
func (g *greedyState) memoSet(owner, partner int, cost float64) {
	g.stores.Add(1)
	row := g.rows[owner]
	if len(row) >= memoRowCap {
		kept := row[:0]
		for _, e := range row {
			if g.alive[e.partner] {
				kept = append(kept, e)
			}
		}
		row = kept
		if len(row) >= memoRowCap {
			copy(row, row[1:])
			row = row[:len(row)-1]
		}
	}
	g.rows[owner] = append(row, memoEntry{partner: int32(partner), cost: cost})
}

// lbFloor returns partner-independent floors for the edge that would feed
// n in any merge: on the zero-length edge cost and on the per-λ wire
// weight. Both gating outcomes are covered — a gated edge costs at least
// AttachCap·P(n) (the control term is non-negative), and an ungated edge
// in a gated tree is charged at parentP ≥ P(n).
func (r *router) lbFloor(n *topology.Node) (zero, weight float64) {
	if r.opts.Drivers == GatedTree {
		return n.AttachCap * n.P, n.P
	}
	zero = n.AttachCap
	if r.opts.Drivers == BufferedTree {
		zero += r.opts.Tech.Buffer.Cin
	}
	return zero, 1
}

// pairCostGated evaluates the merge-ordering cost of joining a and b:
// Equation 3 in the star modes, the sector distance for GreedyDistance
// and NearestNeighbor, and the merged signal probability for
// ActivityDriven. In the star modes an admissible lower bound with the
// real gating decision and merged signal probability is tried first; if
// it already proves the pair strictly worse than threshold, the bound
// comes back as (bound, true, nil) without solving the merge. A threshold
// of +Inf never prunes. The cell scans run the cheaper record floor
// (spatial.go) before it. The costs that need no merge solve return at
// once: the record bound already judged them on the cost's own terms.
func (r *router) pairCostGated(a, b *topology.Node, threshold float64) (float64, bool, error) {
	switch r.opts.Method {
	case GreedyDistance, NearestNeighbor:
		r.pairEvals.Add(1)
		return a.MS.Dist(b.MS), false, nil
	case ActivityDriven:
		// [5]: minimize the merged enable's activity; normalized distance
		// breaks ties so the walk stays deterministic.
		r.pairEvals.Add(1)
		dieSpan := r.in.Die.W() + r.in.Die.H()
		return r.in.Profile.SignalProbUnion(a.Instr, b.Instr) +
			1e-6*a.MS.Dist(b.MS)/dieSpan, false, nil
	}
	parentP := 1.0
	if p := r.in.Profile; p != nil {
		parentP = p.SignalProbUnion(a.Instr, b.Instr)
	}
	da, db, ga, gb := r.decideDrivers(a, b, parentP)
	if !math.IsInf(threshold, 1) {
		// Lower bound: both edges at zero length plus the unavoidable
		// joining distance of wire charged at the cheaper branch weight.
		// WireCap is spelled out, as in edgeSC, so Params is not copied.
		w := math.Min(r.edgeWeight(a, ga, parentP), r.edgeWeight(b, gb, parentP))
		lb := r.edgeSC(a, 0, ga, parentP) + r.edgeSC(b, 0, gb, parentP) +
			r.opts.Tech.WireCapPerLambda*a.MS.Dist(b.MS)*w
		if dominated(lb, threshold) {
			return lb, true, nil
		}
	}
	r.pairEvals.Add(1)
	m, err := dme.BoundedSkewMerge(r.opts.Tech,
		dme.Branch{MS: a.MS, Delay: a.Delay, Spread: a.Spread, Cap: a.Cap, Driver: da},
		dme.Branch{MS: b.MS, Delay: b.Delay, Spread: b.Spread, Cap: b.Cap, Driver: db},
		r.opts.SkewBoundPs)
	if err != nil {
		return 0, false, err
	}
	return r.edgeSC(a, m.LenA, ga, parentP) + r.edgeSC(b, m.LenB, gb, parentP), false, nil
}

// runGreedyProtected runs the fast greedy with a panic barrier: a panic
// inside the heap/memo bookkeeping is converted into an invariant error
// wrapping verify.ErrInvariant instead of unwinding into the caller.
func (r *router) runGreedyProtected() (root *topology.Node, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			root, err = nil, invariantf("fast-path panic: %v", rec)
		}
	}()
	return r.runGreedy()
}

// runGreedy is the accelerated one-pair-at-a-time schedule. Outputs —
// topology, embedding, every float — are bit-identical to the reference
// greedy of oracle_test.go; see the package comment at the top of this
// file for why each layer preserves that. It differs from the reference
// only in how candidates are generated (pyramid walks instead of all-pairs
// scans), how orphaned best-partner entries are found (reverse-dependent
// lists instead of a full scan) and when they are rescanned (on reaching
// the heap top instead of right after the merge); selections, merges and
// every tie-break are identical.
func (r *router) runGreedy() (*topology.Node, error) {
	initStart := time.Now()
	active := r.makeSinks()
	if len(active) == 1 {
		return active[0], nil
	}
	g := r.newGreedyState(active)
	initial := make([]cand, len(active))
	if err := r.parallelForW(len(active), func(i, w int) error {
		c, err := r.bestPartnerIndexed(g, active[i], w)
		initial[i] = c
		return err
	}); err != nil {
		return nil, err
	}
	for i, n := range active {
		g.setBest(n.ID, initial[i])
	}
	r.stats.PhaseInit = time.Since(initStart)

	alive := len(active)
	root := active[0]
	for alive > 1 {
		g.fi.CheckPanic()
		a, err := r.popCheapest(g)
		if err != nil {
			return nil, err
		}
		b := g.best[a.ID].partner
		cost := g.best[a.ID].cost
		var t0 time.Time
		snakesBefore := r.stats.Snakes
		if r.obsEnabled() {
			t0 = time.Now()
		}
		k, err := r.merge(a, b)
		if err != nil {
			return nil, err
		}
		k.P = g.fi.MergedP(k.P)
		r.stats.Merges++
		r.observeMerge(t0, a, b, k, cost, r.stats.Snakes > snakesBefore, len(g.heap))

		g.kill(a.ID, b.ID)
		g.byID[k.ID] = k
		g.alive[k.ID] = true
		r.indexAdd(g, k, a.ID)
		alive--

		if g.idx.count <= g.idx.builtAt/2 {
			r.rebuildIndex(g)
		}
		if err := r.foldInIndexed(g, k); err != nil {
			return nil, err
		}
		if depsAudit != nil && alive > 1 {
			depsAudit(g, r.stats.Merges)
		}
		root = k
	}
	return root, nil
}

// depsAudit, when set, checks the dependent lists after every merge but
// the last; only tests set it.
var depsAudit func(g *greedyState, merge int)
