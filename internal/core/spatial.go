// The spatial layer of the fast greedy: a uniform grid over merging-segment
// midpoints in rotated (u, w) coordinates — where Manhattan TRR distance is
// the Chebyshev metric — topped by a quadtree pyramid of aggregate regions.
// Best-partner scans become best-first walks down the pyramid that stop as
// soon as an admissible region bound proves every unexamined node strictly
// worse than the running best, so the candidates a search examines form a
// bounded neighborhood whose size no longer grows with the instance. Every
// geometric route builds the grid whatever its size; a zero-span instance
// (all sinks at one rotated midpoint) is a one-cell grid.
//
// Candidates live in the cells as cache-line-sized records (candRec): the
// seven floats and the instruction word the hot filter reads travel
// together, so scanning a cell streams contiguous memory and a candidate
// the record bound discards never touches its topology.Node.
//
// Two bound families drive the pruning (both derived in DESIGN.md §11):
//
//   - Geometric: midpoint Chebyshev distance minus the two radii lower-
//     bounds the merging-segment distance, and WireCap is linear, so the
//     unavoidable joining wire charges at least cWire·d times the cheaper
//     side's per-λ weight.
//   - Gating-aware: Equation 3 charges a gated edge into n
//     (AttachCap + c·l)·P_n plus the control-star term (c_ctrl·dist(CP,
//     mid) + C_g)·Ptr_n, and an ungated one (AttachCap + c·l)·parentP,
//     where parentP is the IFT sum over the union of both subtrees'
//     instruction sets. In the star modes with an ungated arm (gating.None,
//     gating.Reduction, an opaque Policy) the bound is the minimum over the
//     four (query arm × partner arm) combinations: a gated side pays its
//     zero-length cost gf plus wire at its own P, an ungated side pays
//     a·pp plus wire at pp, where pp floors parentP. The floor is
//     max(P_q, P_m), raised — when neither word contains the other — by
//     the IFT sum over the low 32 instructions of both nodes, a prefix of
//     SignalProbUnion's terms (exact for K ≤ 32). Whenever the §4.3
//     forced-insertion rule is certain to fire — SubtreeCap ≥ Cap ≥
//     ForceCap at any merge distance — a node's edge is gated under every
//     partner and its ungated arm drops out. gating.All has no ungated
//     arm: its bound is the gated-gated one, with the star term of both
//     sides. Classic modes charge the unconditional floors zu.
//
// Region aggregates (exact per-region floor minima, radius maxima and
// instruction-word ANDs, monotone best-cost maxima and live occupant
// counts) are maintained at every pyramid level, so one comparison
// discards a whole region; the hierarchy is admissible by construction —
// a parent region's bound never exceeds any child's, and a region's
// distance to the query is a true point-to-rectangle gap — so a discarded
// region provably holds no candidate the walk could still need.
//
// Everything here preserves the bit-identity contract of fastpath.go:
//
//   - Every floor is admissible — it never exceeds the true Equation-3
//     cost of any pair it discards — and searches stop or prune only on
//     strict dominance (dominated()), so a candidate that could tie the
//     running best is always examined, and the argmin under the (cost,
//     then partner ID) total order is independent of enumeration order.
//     The selected pair — and therefore every output bit — matches the
//     reference greedy's all-pairs scan.
//   - All index mutations (insert, remove, rebuild, floor updates) happen
//     in the serial sections of the merge loop; the one parallel phase
//     (the initial best-partner scan) only reads it.
//
// Every greedy schedule walks this pyramid. NearestNeighbor's rounds and
// GreedyDistance bound the sector distance itself (polDist); ActivityDriven
// (polAct) bounds the merged signal probability by the same parentP floor
// the star modes use — max(P_q, P_m) raised by the summed words, and a
// region's word AND — plus its 1e-6/dieSpan distance tie-break charged at
// the gap.
package core

import (
	"math"
	"math/bits"

	"repro/internal/gating"
	"repro/internal/topology"
)

// Gating-policy shapes the candidate filter distinguishes. The star
// modes (polAll to polOpaque) are the MinSwitchedCap + GatedTree
// configurations whose gated edges carry the control-star term; from
// polNever on, the bound reads a floor on the merged enable's signal
// probability (parentP), raised by the summed instruction words.
const (
	polClassic = iota // lbFloor terms only (MinClockCapOnly, ungated driver modes)
	polDist           // GreedyDistance, NearestNeighbor: the pair cost is the MS distance itself
	polAll            // gating.All — every edge gated, star term unconditional
	polNever          // gating.None — no gates; edges charged at parentP
	polReduce         // gating.Reduction — §4.3 rules resolved where certain
	polOpaque         // unknown Policy — minimum over both gating arms
	polAct            // ActivityDriven — parentP plus the distance tie-break
)

// candRec is one indexed candidate, resident in its grid cell: the seven
// floats the admissible filter reads, the node ID and its instruction
// word, exactly one cache line so a cell scan streams len(cell) lines. A
// cell holds an immutable copy of greedyState.recs[id] (a node's merging
// segment, floor terms and instruction set never change after creation).
type candRec struct {
	u, w, rad float64 // rotated MS midpoint and Chebyshev radius
	zu, wf    float64 // unconditional zero-length floor, per-λ wire weight
	gf, a     float64 // star modes: gated-arm zero-length cost, ungated-arm attach cap
	id        int32
	word      uint32 // star modes, polAct: the node's instructions 0–31 (the parentP floor's bits)
}

// qlevel is one level of the region pyramid. Level 0 is the cell raster
// itself; level l aggregates 2^l × 2^l cells per region. Floor minima,
// radius maxima and the instruction-word AND are exact over the live
// occupants: insertion folds them in, removal recomputes them (remove).
// Best-cost maxima only grow between rebuilds.
type qlevel struct {
	cols, rows int
	shift      uint // log2 cells per region side
	agg        []regionAgg
}

// regionAgg packs one region's aggregates into a single cache line, the
// region-level mirror of candRec: a bound check (regionLB + the occupancy
// and dominance tests around it) reads every field, so the walk pays one
// line per region instead of striding six parallel slices.
type regionAgg struct {
	zuMin, wfMin float64
	gfMin, aMin  float64
	maxRad       float64 // max MS Chebyshev radius of any occupant
	maxBest      float64 // monotone max of cached best[n].cost over occupants
	count        int32   // live occupants
	and          uint32  // AND of the live occupants' words; all ones when empty
	_            int64   // pad to 64 bytes
}

// emptyFloors resets the region's floors to those of an empty region:
// +Inf minima, radius 0 and an all-ones word.
func (ag *regionAgg) emptyFloors() {
	inf := math.Inf(1)
	ag.zuMin, ag.wfMin, ag.gfMin, ag.aMin, ag.maxRad, ag.and = inf, inf, inf, inf, 0, ^uint32(0)
}

// fold folds one occupant's (or one child region's) floor terms into the
// region's minima, radius maximum and word AND.
func (ag *regionAgg) fold(zu, wf, gf, a, rad float64, word uint32) {
	if zu < ag.zuMin {
		ag.zuMin = zu
	}
	if wf < ag.wfMin {
		ag.wfMin = wf
	}
	if gf < ag.gfMin {
		ag.gfMin = gf
	}
	if a < ag.aMin {
		ag.aMin = a
	}
	if rad > ag.maxRad {
		ag.maxRad = rad
	}
	ag.and &= word
}

// spatialScratch pools every allocation the grid needs across rebuilds:
// one aggregate slab for all regions of all levels, plus the cell headers
// and record slabs. Owned by one greedyState; rebuilds recycle it, so
// O(log n) rebuilds cost O(1) steady-state allocations.
type spatialScratch struct {
	agg     []regionAgg
	cellOf  []int32
	cells   [][]candRec
	cellCnt []int32
	recs    []candRec
	levels  []qlevel
}

// spatialIndex buckets live nodes into a uniform grid over rotated
// merging-segment midpoints, with the region pyramid on top. Out-of-range
// points (merge midpoints can drift outside the grid built from an earlier
// population) are clamped to the boundary cells, so regionBD treats every
// region edge on the grid boundary as open outward; a query keeps its
// unclamped position, and distance bounds only under-estimate true
// separations — admissible, never wrong.
type spatialIndex struct {
	minU, minW float64
	cell       float64 // cell side in rotated units, > 0
	cols, rows int     // grid dimensions, ≥ 1
	cells      [][]candRec
	cellOf     []int32 // cellOf[id] = linear cell index, −1 when absent
	count      int     // nodes currently indexed
	builtAt    int     // count at the last (re)build; rebuild at ≤ half
	levels     []qlevel
	scr        *spatialScratch
}

// newSpatialGrid sizes a grid for n nodes spanning the given rotated
// bounding box, aiming for ~2 nodes per cell on a square cell raster, and
// builds the region pyramid up to a ≤2×2 top. A degenerate (zero-span) box
// collapses to a single cell. All backing arrays are carved from scr.
func newSpatialGrid(scr *spatialScratch, capIDs int, minU, maxU, minW, maxW float64, n int) *spatialIndex {
	span := math.Max(maxU-minU, maxW-minW)
	cell := 1.0
	if span > 0 {
		target := math.Round(math.Sqrt(float64(n) / 2))
		if target < 1 {
			target = 1
		}
		cell = span / target
	}
	cols := int((maxU-minU)/cell) + 1
	rows := int((maxW-minW)/cell) + 1
	x := &spatialIndex{minU: minU, minW: minW, cell: cell, cols: cols, rows: rows, scr: scr}

	lv := scr.levels[:0]
	lv = append(lv, qlevel{cols: cols, rows: rows, shift: 0})
	for lv[len(lv)-1].cols > 2 || lv[len(lv)-1].rows > 2 {
		s := uint(len(lv))
		lv = append(lv, qlevel{cols: ((cols - 1) >> s) + 1, rows: ((rows - 1) >> s) + 1, shift: s})
	}
	totalR := 0
	for i := range lv {
		totalR += lv[i].cols * lv[i].rows
	}
	if cap(scr.agg) < totalR {
		scr.agg = make([]regionAgg, totalR)
	}
	agg := scr.agg[:totalR]
	off := 0
	for i := range lv {
		r := lv[i].cols * lv[i].rows
		lv[i].agg = agg[off : off+r : off+r]
		off += r
		for j := 0; j < r; j++ {
			lv[i].agg[j] = regionAgg{}
			lv[i].agg[j].emptyFloors()
		}
	}
	scr.levels = lv
	x.levels = lv

	if cap(scr.cellOf) < capIDs {
		scr.cellOf = make([]int32, capIDs)
	}
	x.cellOf = scr.cellOf[:capIDs]
	for i := range x.cellOf {
		x.cellOf[i] = -1
	}
	if cap(scr.cells) < cols*rows {
		scr.cells = make([][]candRec, cols*rows)
	}
	x.cells = scr.cells[:cols*rows]
	for i := range x.cells {
		x.cells[i] = nil
	}
	return x
}

// cellPos returns rotated point (u, w) in unclamped cell units.
func (x *spatialIndex) cellPos(u, w float64) (fu, fw float64) {
	return (u - x.minU) / x.cell, (w - x.minW) / x.cell
}

// coords returns the grid cell of rotated point (u, w), clamped to the
// grid.
func (x *spatialIndex) coords(u, w float64) (ci, cj int) {
	fu, fw := x.cellPos(u, w)
	ci, cj = int(fu), int(fw)
	if ci < 0 {
		ci = 0
	} else if ci >= x.cols {
		ci = x.cols - 1
	}
	if cj < 0 {
		cj = 0
	} else if cj >= x.rows {
		cj = x.rows - 1
	}
	return ci, cj
}

// insert buckets rec into its cell and folds its floor terms into the
// aggregates of every pyramid level — minima only shrink and maxima only
// grow, so parent bounds never exceed a child's (the hierarchy the
// best-first walk's early stop relies on). Serial sections only.
func (x *spatialIndex) insert(rec candRec) {
	ci, cj := x.coords(rec.u, rec.w)
	c := cj*x.cols + ci
	x.cellOf[rec.id] = int32(c)
	x.cells[c] = append(x.cells[c], rec)
	for l := range x.levels {
		lv := &x.levels[l]
		ag := &lv.agg[(cj>>lv.shift)*lv.cols+ci>>lv.shift]
		ag.count++
		ag.fold(rec.zu, rec.wf, rec.gf, rec.a, rec.rad, rec.word)
	}
	x.count++
}

// remove deletes id from its cell by swap-removal, decrements the live
// counts and keeps every floor exact: the cell's minima, radius maximum
// and word AND are recomputed from its remaining records, then each
// ancestor's from its ≤4 children, up to the first level the removal left
// unchanged — every level above it folds unchanged children. An emptied
// region holds empty floors (emptyFloors); maxBest stays a monotone
// maximum. In-cell order is not part of the contract: scans take an
// order-independent argmin.
func (x *spatialIndex) remove(id int32) {
	c := x.cellOf[id]
	if c < 0 {
		return
	}
	s := x.cells[c]
	for i := range s {
		if s[i].id == id {
			s[i] = s[len(s)-1]
			s = s[:len(s)-1]
			break
		}
	}
	x.cells[c] = s
	x.cellOf[id] = -1
	ci, cj := int(c)%x.cols, int(c)/x.cols
	dirty := true
	for l := range x.levels {
		lv := &x.levels[l]
		ri, rj := ci>>lv.shift, cj>>lv.shift
		ag := &lv.agg[rj*lv.cols+ri]
		ag.count--
		if !dirty {
			continue
		}
		old := *ag
		ag.emptyFloors()
		if l == 0 {
			for i := range s {
				ag.fold(s[i].zu, s[i].wf, s[i].gf, s[i].a, s[i].rad, s[i].word)
			}
		} else {
			clv := &x.levels[l-1]
			for kj := rj * 2; kj <= rj*2+1 && kj < clv.rows; kj++ {
				for ki := ri * 2; ki <= ri*2+1 && ki < clv.cols; ki++ {
					k := &clv.agg[kj*clv.cols+ki]
					ag.fold(k.zuMin, k.wfMin, k.gfMin, k.aMin, k.maxRad, k.and)
				}
			}
		}
		dirty = *ag != old
	}
	x.count--
}

// noteBest folds a freshly cached best cost into the monotone per-region
// maxima, bottom level up. Once a level already holds ≥ cost, every level
// above does too (parent maxima dominate children by construction), so the
// fold stops early. Serial sections only (called from setBest).
func (x *spatialIndex) noteBest(id int32, cost float64) {
	c := x.cellOf[id]
	if c < 0 {
		return
	}
	ci, cj := int(c)%x.cols, int(c)/x.cols
	for l := range x.levels {
		lv := &x.levels[l]
		ag := &lv.agg[(cj>>lv.shift)*lv.cols+ci>>lv.shift]
		if cost <= ag.maxBest {
			return
		}
		ag.maxBest = cost
	}
}

// queryCtx is the hoisted query side of the admissible candidate filter:
// everything a region bound or per-candidate bound needs from the
// searching node, loaded once per search.
type queryCtx struct {
	rec      candRec // the query's own record: position, radius, floors, word
	qci, qcj int     // query's (clamped) grid cell
	qfu, qfw float64 // query's unclamped position in cell units
	mode     int     // polMode
	cWire    float64
	freq     *lowFreq
}

// lowFreq is the per-route slice of the IFT the parentP floor reads:
// P(I_k) for the instructions 0–31 that candRec.word carries.
type lowFreq [32]float64

func (g *greedyState) makeQuery(q int) queryCtx {
	rec := g.recs[q]
	ci, cj := g.idx.coords(rec.u, rec.w)
	fu, fw := g.idx.cellPos(rec.u, rec.w)
	return queryCtx{rec: rec, qci: ci, qcj: cj, qfu: fu, qfw: fw,
		mode: g.polMode, cWire: g.cWire, freq: &g.freq}
}

// regionBD returns the Chebyshev gap, in cell units, from the query's
// unclamped position to the cell rectangle of region rg at level l. A
// rectangle edge on the grid boundary is open outward: clamped points of
// any distance live in the boundary cells.
func (x *spatialIndex) regionBD(qc *queryCtx, l int, rg int32) float64 {
	lv := &x.levels[l]
	ri, rj := int(rg)%lv.cols, int(rg)/lv.cols
	side := 1 << lv.shift
	iLo, jLo := ri<<lv.shift, rj<<lv.shift
	return max(axisGap(qc.qfu, iLo, iLo+side, x.cols), axisGap(qc.qfw, jLo, jLo+side, x.rows))
}

// gapDist converts a region gap into a Chebyshev distance floor between
// centers. The 1e-9-cell guard exceeds the rounding of the cell
// assignment, which is relative to u − minU in cell units and therefore
// tiny at any coordinate offset.
func (x *spatialIndex) gapDist(bd float64) float64 {
	return max(0, bd-1e-9) * x.cell
}

// floorLB lower-bounds pairCost(q, m) for every partner m whose floor
// terms are at least zu, wf, gf and a, whose merging segment lies at
// Chebyshev distance ≥ dlb from the query's, and whose merged enable has
// signal probability ≥ pp, where pp ≥ max(P_q, wf). In the star modes wf
// is the partner's P. The wire term charges dlb at the cheaper side's
// per-λ weight — a gated side's own P, an ungated side's parentP ≥ pp.
// gating.All has only the gated-gated arm (its a is +Inf everywhere);
// the modes with an ungated arm take the minimum over the four (query arm
// × partner arm) combinations. An arm a mode rules out carries +Inf (or
// NaN, when pp is 0) and never wins a comparison, so it drops out.
// polAct charges pp plus dlb at cWire, its tie-break weight 1e-6/dieSpan.
func (qc *queryCtx) floorLB(zu, wf, gf, a, dlb, pp float64) float64 {
	q := &qc.rec
	cd := qc.cWire * dlb
	w := q.wf
	if wf < w {
		w = wf
	}
	switch qc.mode {
	case polDist:
		return dlb
	case polClassic:
		return q.zu + zu + cd*w
	case polAll:
		return gf + cd*w + q.zu
	case polAct:
		return pp + cd
	}
	lb := q.gf + gf + cd*w // both gated
	if u := q.gf + a*pp + cd*q.wf; u < lb {
		lb = u // partner ungated
	}
	if u := q.a*pp + gf + cd*wf; u < lb {
		lb = u // query ungated
	}
	if u := (q.a + a + cd) * pp; u < lb {
		lb = u // both ungated
	}
	return lb
}

// ppFloor raises a parentP floor pp with the IFT sum over the low 32
// instructions of the query's word OR'd with word, which is a subset of
// every partner's word: the sum adds, in SignalProbUnion's own order, a
// prefix of that function's terms, so it never exceeds the true parentP
// and equals it for K ≤ 32. When one word contains the other the sum is
// at most that side's P, already in pp, and is skipped.
func (qc *queryCtx) ppFloor(pp float64, word uint32) float64 {
	u := qc.rec.word | word
	if u == qc.rec.word || u == word {
		return pp
	}
	s := 0.0
	for ; u != 0; u &= u - 1 {
		s += qc.freq[bits.TrailingZeros32(u)]
	}
	if s > pp {
		return s
	}
	return pp
}

// recordDLB is the Chebyshev distance between the query's and m's
// midpoints minus both radii, clamped at 0: a floor on the
// merging-segment distance.
func (qc *queryCtx) recordDLB(m *candRec) float64 {
	q := &qc.rec
	d := math.Abs(q.u - m.u)
	if dw := math.Abs(q.w - m.w); dw > d {
		d = dw
	}
	if d = d - q.rad - m.rad; d > 0 {
		return d
	}
	return 0
}

// recordPruned is the per-candidate filter both walkers run before the
// memo probe and pairCostGated: it reports whether the admissible bound of
// pairCost(q, m), computed from the two records alone, strictly dominates
// thr. floorLB runs first with parentP floored at max(P_q, P_m); in the
// modes with an ungated arm a survivor is judged again with the
// summed-word floor (ppFloor). The bound only grows with its floor, so
// the two stages decide exactly as the second alone would. Pruning a
// memoized candidate is harmless: the bound proves its cached cost loses
// the argmin anyway.
func (qc *queryCtx) recordPruned(m *candRec, thr float64) bool {
	dlb := qc.recordDLB(m)
	pp := qc.rec.wf
	if m.wf > pp {
		pp = m.wf
	}
	if dominated(qc.floorLB(m.zu, m.wf, m.gf, m.a, dlb, pp), thr) {
		return true
	}
	if qc.mode < polNever {
		return false // no ungated arm: parentP never enters the bound
	}
	if s := qc.ppFloor(pp, m.word); s > pp {
		return dominated(qc.floorLB(m.zu, m.wf, m.gf, m.a, dlb, s), thr)
	}
	return false
}

// regionLB lower-bounds pairCost(q, m) for every occupant m of region rg,
// given the region's gap bd (the caller already computed it for the
// nearest-first ordering — gaps are never paid twice per region) at level
// l: every occupant's center sits at Chebyshev distance ≥ gapDist(bd)
// from the query's, discounted by the query's radius and the region's own
// maximum occupant radius — floorLB evaluated against the region's floor
// minima, with parentP floored by the query's word OR'd with the region's
// word AND. Unlike the record bound it runs in one stage: a two-stage
// region check routed the 100k-sink instance no faster. A NaN carries no
// information and collapses to 0, which is always admissible.
func (x *spatialIndex) regionLB(qc *queryCtx, l int, rg int32, bd float64) float64 {
	ag := &x.levels[l].agg[rg]
	dlb := x.gapDist(bd) - qc.rec.rad - ag.maxRad
	if dlb < 0 {
		dlb = 0
	}
	pp := qc.rec.wf
	if ag.wfMin > pp {
		pp = ag.wfMin
	}
	if qc.mode >= polNever {
		pp = qc.ppFloor(pp, ag.and)
	}
	lb := qc.floorLB(ag.zuMin, ag.wfMin, ag.gfMin, ag.aMin, dlb, pp)
	if math.IsNaN(lb) {
		return 0
	}
	return lb
}

// attachIndex resolves the gating-policy mode of the candidate filter,
// copies the IFT entries of instructions 0–31 for the parentP floor,
// registers every sink's candidate record with its memo row and
// reverse-dependent list, lays out the per-worker search scratch and the
// memo/dependent slabs, and builds the grid over the sinks.
func (r *router) attachIndex(g *greedyState, sinks []*topology.Node) {
	g.cWire = r.opts.Tech.WireCap(1)
	g.polMode = polClassic
	switch {
	case r.opts.Method == GreedyDistance || r.opts.Method == NearestNeighbor:
		g.polMode = polDist
	case r.opts.Method == ActivityDriven:
		g.polMode = polAct
		g.cWire = 1e-6 / (r.in.Die.W() + r.in.Die.H())
	case r.opts.Method == MinSwitchedCap && r.opts.Drivers == GatedTree:
		switch p := r.policy.(type) {
		case gating.All:
			g.polMode = polAll
		case gating.None:
			g.polMode = polNever
		case gating.Reduction:
			g.polMode = polReduce
			g.forceCap = p.ForceCap
		default:
			g.polMode = polOpaque
		}
	}
	if p := r.in.Profile; p != nil {
		for k := 0; k < len(g.freq) && k < p.ISA.NumInstr(); k++ {
			g.freq[k] = p.Freq(k)
		}
	}
	capIDs := len(g.byID)
	g.rows = make([][]memoEntry, capIDs)
	g.deps = make([][]int32, capIDs)
	g.depPos = make([]int32, capIDs)
	g.recs = make([]candRec, capIDs)
	// Row and dependent-list slabs: one contiguous carve per sink (merge
	// nodes recycle freed rows first), three-index capped so append growth
	// reallocates off-slab instead of aliasing a neighbor.
	g.rowSlab = make([]memoEntry, len(sinks)*memoRowInit)
	g.depSlab = make([]int32, len(sinks)*depInit)
	g.scratch = make([]searchScratch, max(r.workers, 1))
	g.gridScr = &spatialScratch{}
	for _, n := range sinks {
		r.indexRegister(g, n)
		g.assignRow(n.ID)
		g.assignDeps(n.ID)
	}
	g.buildGrid()
}

// indexRegister fills node n's candidate record: rotated merging-segment
// key, floor terms, and the star modes' per-arm partner floors. The
// unconditional zero-length floor zu is AttachCap·P — what both gating
// arms dominate — upgraded to the full gated-edge cost including the
// control star whenever the edge is certainly gated: always under
// gating.All, and under gating.Reduction when Cap ≥ ForceCap makes the
// forced-insertion rule fire at any merge distance.
//
// The star modes additionally split the node's floor by gating arm. gf is
// the exact zero-length cost of a gated edge into the node — Equation 3
// charges it AttachCap·P plus the control-star term, independent of any
// partner. a is its attach capacitance, the ungated arm's zero-length
// multiplier of parentP. An arm the mode rules out holds +Inf: a
// certainly-gated edge has no ungated arm (a), gating.None has no gated
// one (gf). word holds the node's instructions 0–31, the bits the parentP
// floor sums. polAct records carry wf = P, the parentP floor's own term,
// whatever the driver mode. Serial sections only.
func (r *router) indexRegister(g *greedyState, n *topology.Node) {
	u, w, rad := n.MSKey()
	zero, wf := r.lbFloor(n)
	rec := candRec{u: u, w: w, rad: rad, zu: zero, wf: wf,
		gf: math.Inf(1), a: math.Inf(1), id: int32(n.ID)}
	switch {
	case g.polMode == polAct:
		rec.wf = n.P
	case g.polMode >= polAll:
		if g.polMode != polNever {
			p := &r.opts.Tech
			star := r.controller.StarDist(n.MS.Center())
			rec.gf = n.AttachCap*n.P + (p.CtrlCapPerLambda*star+p.Gate.Cin)*n.Ptr
		}
		if g.polMode == polAll || (g.polMode == polReduce && g.forceCap > 0 && n.Cap >= g.forceCap) {
			rec.zu = rec.gf // certainly gated: the star is unconditional
		} else {
			rec.a = n.AttachCap // the ungated arm stays possible
		}
	}
	if g.polMode >= polAll && len(n.Instr) > 0 {
		rec.word = uint32(n.Instr[0])
	}
	g.recs[n.ID] = rec
}

// indexAdd registers a fresh merge node and enters it into the live grid
// with its pooled memo and reverse-dependent rows. Serial sections only.
func (r *router) indexAdd(g *greedyState, n *topology.Node) {
	r.indexRegister(g, n)
	g.idx.insert(g.recs[n.ID])
	g.assignRow(n.ID)
	g.assignDeps(n.ID)
}

// buildGrid builds a fresh grid over the bounding box of every alive
// node's record and bulk-loads them. Cell record arrays are carved from
// one slab, each with one spare slot so the next post-build insert into
// the cell stays in place; a cell that outgrows its carve reallocates
// off-slab, never aliasing a neighbor.
func (g *greedyState) buildGrid() {
	minU, maxU := math.Inf(1), math.Inf(-1)
	minW, maxW := math.Inf(1), math.Inf(-1)
	live := 0
	for id, ok := range g.alive {
		if !ok {
			continue
		}
		live++
		rec := &g.recs[id]
		minU, maxU = math.Min(minU, rec.u), math.Max(maxU, rec.u)
		minW, maxW = math.Min(minW, rec.w), math.Max(maxW, rec.w)
	}
	idx := newSpatialGrid(g.gridScr, len(g.byID), minU, maxU, minW, maxW, live)
	g.idx = idx
	scr := idx.scr
	nc := idx.cols * idx.rows
	if cap(scr.cellCnt) < nc {
		scr.cellCnt = make([]int32, nc)
	}
	cnt := scr.cellCnt[:nc]
	for i := range cnt {
		cnt[i] = 0
	}
	for id, ok := range g.alive {
		if ok {
			ci, cj := idx.coords(g.recs[id].u, g.recs[id].w)
			cnt[cj*idx.cols+ci]++
		}
	}
	need := live + nc
	if cap(scr.recs) < need {
		scr.recs = make([]candRec, need)
	}
	recs := scr.recs[:need]
	off := 0
	for c, n := range cnt {
		if n == 0 {
			continue
		}
		end := off + int(n) + 1
		idx.cells[c] = recs[off:off:end]
		off = end
	}
	for id, ok := range g.alive {
		if ok {
			idx.insert(g.recs[id])
		}
	}
	idx.builtAt = idx.count
}

// rebuildIndex rebuilds the grid over the surviving nodes once the
// population has halved, restoring ~2 nodes per cell and retightening the
// best-cost maxima that only grew since the last build (the floors are
// exact throughout), and grids each nearest-neighbour round after the
// first over exactly its starting set. Triggered O(log n) times; all
// backing arrays recycle through the grid scratch.
func (r *router) rebuildIndex(g *greedyState) {
	g.buildGrid()
	for id, ok := range g.alive {
		if !ok {
			continue
		}
		if c := g.best[id].cost; c > 0 {
			g.idx.noteBest(int32(id), c)
		}
	}
	r.stats.IndexRebuilds++
}

// searchWalker is the best-partner search's region walker: a nearest-first
// depth-first descent of the pyramid, seeded from the query's own cell so
// a running best exists — and dominance pruning bites — before anything
// else is visited. A region is discarded at entry when its admissible
// bound strictly dominates the running best; children are visited in
// (gap, then region index) order, so near — hence cheap —
// candidates tighten the threshold before far regions are judged. The
// visit order only affects which regions get discarded, never the result:
// strict-dominance discards cannot hide the argmin or a tie under the
// (cost, then partner ID) total order, so the walk returns the
// bit-identical partner an all-pairs scan would.
type searchWalker struct {
	r    *router
	g    *greedyState
	n    *topology.Node
	qc   queryCtx
	out  cand
	seed int32 // home cell, already scanned; excluded from the descent

	found bool

	examined, pops  int
	skipped, cached int64
	err             error
}

func (sw *searchWalker) reset(r *router, g *greedyState, n *topology.Node, qc queryCtx) {
	sw.r, sw.g, sw.n, sw.qc = r, g, n, qc
	sw.out, sw.found, sw.seed = cand{}, false, -1
	sw.examined, sw.pops = 0, 0
	sw.skipped, sw.cached = 0, 0
	sw.err = nil
}

// walkRoots descends from the top-level regions, nearest-first. The top of
// the pyramid is at most 2×2 by construction.
func (sw *searchWalker) walkRoots() {
	idx := sw.g.idx
	top := len(idx.levels) - 1
	lv := &idx.levels[top]
	var order [4]int32
	var bds [4]float64
	cnt := 0
	for rg := int32(0); rg < int32(lv.cols*lv.rows); rg++ {
		if lv.agg[rg].count == 0 {
			continue
		}
		order[cnt] = rg
		bds[cnt] = idx.regionBD(&sw.qc, top, rg)
		cnt++
	}
	sortNearest(order[:cnt], bds[:cnt])
	for i := 0; i < cnt; i++ {
		sw.region(top, order[i], bds[i])
		if sw.err != nil {
			return
		}
	}
}

// region walks one region of level l at gap bd: discard, scan (level 0),
// or recurse into the live children nearest-first.
func (sw *searchWalker) region(l int, rg int32, bd float64) {
	if l == 0 && rg == sw.seed {
		return // home cell: scanned before the descent started
	}
	idx := sw.g.idx
	lv := &idx.levels[l]
	occ := lv.agg[rg].count
	if occ == 0 {
		return
	}
	if sw.found && dominated(idx.regionLB(&sw.qc, l, rg, bd), sw.out.cost) {
		sw.skipped += int64(occ)
		return
	}
	sw.pops++
	if l == 0 {
		sw.scanCell(rg)
		return
	}
	cl := l - 1
	clv := &idx.levels[cl]
	ri, rj := int(rg)%lv.cols, int(rg)/lv.cols
	var kids [4]int32
	var bds [4]float64
	cnt := 0
	for cj2 := rj * 2; cj2 <= rj*2+1 && cj2 < clv.rows; cj2++ {
		for ci2 := ri * 2; ci2 <= ri*2+1 && ci2 < clv.cols; ci2++ {
			crg := int32(cj2*clv.cols + ci2)
			if clv.agg[crg].count == 0 {
				continue
			}
			kids[cnt] = crg
			bds[cnt] = idx.regionBD(&sw.qc, cl, crg)
			cnt++
		}
	}
	sortNearest(kids[:cnt], bds[:cnt])
	for i := 0; i < cnt; i++ {
		sw.region(cl, kids[i], bds[i])
		if sw.err != nil {
			return
		}
	}
}

// scanCell streams one cell's candidate records through the record bound
// (recordPruned), the memo and the gated evaluation, folding each survivor
// into the running (cost, then partner ID) argmin.
func (sw *searchWalker) scanCell(c int32) {
	g, r, n := sw.g, sw.r, sw.n
	q := n.ID
	recs := g.idx.cells[c]
	for i := range recs {
		rec := &recs[i]
		id := rec.id
		if id == sw.qc.rec.id {
			continue
		}
		sw.examined++
		if sw.found && sw.qc.recordPruned(rec, sw.out.cost) {
			sw.skipped++
			continue
		}
		m := g.byID[id]
		var cost float64
		if cc, ok := g.memoGet(q, int(id)); ok {
			sw.cached++
			cost = g.fi.MemoCost(cc)
			if !(cost >= 0) {
				sw.err = invariantf("memo row %d[%d] holds impossible cost %v",
					q, id, cost)
				return
			}
		} else {
			thr := math.Inf(1)
			if sw.found {
				thr = sw.out.cost
			}
			cc, pruned, err := r.pairCostGated(n, m, thr)
			if err != nil {
				sw.err = err
				return
			}
			if pruned {
				sw.skipped++
				continue
			}
			g.memoSet(q, int(id), cc)
			cost = cc
		}
		if !sw.found || cost < sw.out.cost || (cost == sw.out.cost && m.ID < sw.out.partner.ID) {
			sw.out = cand{partner: m, cost: cost}
			sw.found = true
		}
	}
}

// searchScratch is one worker's private best-partner walker, padded apart
// so adjacent workers never share a cache line.
type searchScratch struct {
	search searchWalker
	_      [64]byte
}

// bestPartnerIndexed finds n's cheapest partner among the live nodes by a
// walk of the region pyramid: it scans the query's home cell first (a
// near — hence tight — initial best), then lets the searchWalker descend
// the pyramid nearest-first, discarding every region whose admissible
// bound strictly dominates the running best. The neighborhood examined
// tracks the local density, not N. Candidates go through the record
// filter, the memo and the gated bound, under the reference scan's (cost,
// then partner ID) argmin; strict-dominance pruning never discards a
// potential tie, so the returned cand is bit-identical to the reference
// one. Safe to call concurrently for distinct n with distinct worker
// indices w; the index is read-only here.
func (r *router) bestPartnerIndexed(g *greedyState, n *topology.Node, w int) (cand, error) {
	idx := g.idx
	sw := &g.scratch[w].search
	sw.reset(r, g, n, g.makeQuery(n.ID))
	if rg0 := int32(sw.qc.qcj*idx.cols + sw.qc.qci); idx.levels[0].agg[rg0].count > 0 {
		sw.seed = rg0
		sw.pops++
		sw.scanCell(rg0)
	}
	if sw.err == nil {
		sw.walkRoots()
	}
	if sw.err != nil {
		return cand{}, sw.err
	}
	r.pairSkipped.Add(sw.skipped)
	r.pairCached.Add(sw.cached)
	r.noteSearch(sw.examined, sw.pops)
	return sw.out, nil
}

// foldWalker is the fold-in's region walker: a nearest-first depth-first
// descent of the pyramid that serves double duty — it computes the fresh
// node k's own best partner ck and applies every strict improvement
// cost(n, k) < best[n].cost as it finds it. Costs are evaluated
// owner-first as cost(n, k), exactly as the reference fold-in does, and k
// carries the highest live ID, so ties keep the incumbent and only strict
// improvements rewrite best[n]. The improvement threshold is n's heap key
// (greedyState.key), which for a stale n is staleKey(best[n].cost): every
// other live node costs n at least that, so a k strictly below it is n's
// exact argmin and clears the mark.
//
// A region is discarded only when its admissible bound strictly dominates
// BOTH duties' thresholds: the running ck and the region's monotone
// best-cost maximum (≥ best[n] for every occupant). A discarded region
// therefore provably holds neither k's partner nor an improvable node.
// Until a first ck exists nothing is pruned — k must always end up with a
// partner, however expensive. An applied improvement only lowers best[n],
// and n is never visited twice, so applying it mid-walk leaves every
// pruning threshold the walk still reads admissible.
type foldWalker struct {
	r     *router
	g     *greedyState
	k     *topology.Node
	qc    queryCtx
	ck    cand
	found bool

	examined, pops int
	skipped        int64
	err            error
}

func (fw *foldWalker) reset(r *router, g *greedyState, k *topology.Node, qc queryCtx) {
	fw.r, fw.g, fw.k, fw.qc = r, g, k, qc
	fw.ck, fw.found = cand{}, false
	fw.examined, fw.pops = 0, 0
	fw.skipped = 0
	fw.err = nil
}

// walkRoots descends from the top-level regions, nearest-first. The top of
// the pyramid is at most 2×2 by construction.
func (fw *foldWalker) walkRoots() {
	idx := fw.g.idx
	top := len(idx.levels) - 1
	lv := &idx.levels[top]
	var order [4]int32
	var bds [4]float64
	cnt := 0
	for rg := int32(0); rg < int32(lv.cols*lv.rows); rg++ {
		if lv.agg[rg].count == 0 {
			continue
		}
		order[cnt] = rg
		bds[cnt] = idx.regionBD(&fw.qc, top, rg)
		cnt++
	}
	sortNearest(order[:cnt], bds[:cnt])
	for i := 0; i < cnt; i++ {
		fw.region(top, order[i], bds[i])
		if fw.err != nil {
			return
		}
	}
}

// sortNearest insertion-sorts ≤4 regions by (gap from the query, then
// region index) — the deterministic nearest-first visit order.
func sortNearest(rgs []int32, bds []float64) {
	for i := 1; i < len(rgs); i++ {
		for j := i; j > 0 && (bds[j] < bds[j-1] || (bds[j] == bds[j-1] && rgs[j] < rgs[j-1])); j-- {
			bds[j], bds[j-1] = bds[j-1], bds[j]
			rgs[j], rgs[j-1] = rgs[j-1], rgs[j]
		}
	}
}

// region walks one region of level l at gap bd: discard, scan (level 0),
// or recurse into the live children nearest-first.
func (fw *foldWalker) region(l int, rg int32, bd float64) {
	idx := fw.g.idx
	lv := &idx.levels[l]
	ag := &lv.agg[rg]
	if ag.count == 0 {
		return
	}
	if fw.found {
		thr := fw.ck.cost
		if ag.maxBest > thr {
			thr = ag.maxBest
		}
		if dominated(idx.regionLB(&fw.qc, l, rg, bd), thr) {
			fw.skipped += int64(ag.count)
			return
		}
	}
	fw.pops++
	if l == 0 {
		fw.scanCell(rg)
		return
	}
	cl := l - 1
	clv := &idx.levels[cl]
	ri, rj := int(rg)%lv.cols, int(rg)/lv.cols
	var kids [4]int32
	var bds [4]float64
	cnt := 0
	for cj2 := rj * 2; cj2 <= rj*2+1 && cj2 < clv.rows; cj2++ {
		for ci2 := ri * 2; ci2 <= ri*2+1 && ci2 < clv.cols; ci2++ {
			crg := int32(cj2*clv.cols + ci2)
			if clv.agg[crg].count == 0 {
				continue
			}
			kids[cnt] = crg
			bds[cnt] = idx.regionBD(&fw.qc, cl, crg)
			cnt++
		}
	}
	sortNearest(kids[:cnt], bds[:cnt])
	for i := 0; i < cnt; i++ {
		fw.region(cl, kids[i], bds[i])
		if fw.err != nil {
			return
		}
	}
}

// scanCell streams one cell's candidate records through the record bound
// (recordPruned) and the gated evaluation, folding each survivor into ck
// and applying strict improvements. The per-candidate prune threshold is
// the larger of best[id] and ck — a discarded candidate then provably
// neither becomes ck nor improves best[id]. There is no memo probe: k is
// fresh and no search runs between its merge and this walk, so no row
// holds it yet; the evaluated costs are stored for the rescans that
// follow.
func (fw *foldWalker) scanCell(c int32) {
	g, r, k := fw.g, fw.r, fw.k
	recs := g.idx.cells[c]
	for i := range recs {
		rec := &recs[i]
		id := rec.id
		if id == fw.qc.rec.id {
			continue
		}
		fw.examined++
		thr := math.Inf(1)
		if fw.found {
			thr = g.best[id].cost
			if fw.ck.cost > thr {
				thr = fw.ck.cost
			}
			if fw.qc.recordPruned(rec, thr) {
				fw.skipped++
				continue
			}
		}
		n := g.byID[id]
		cost, pruned, err := r.pairCostGated(n, k, thr)
		if err != nil {
			fw.err = err
			return
		}
		if pruned {
			fw.skipped++
			continue
		}
		g.memoSet(int(id), k.ID, cost)
		if !fw.found || cost < fw.ck.cost || (cost == fw.ck.cost && n.ID < fw.ck.partner.ID) {
			fw.ck = cand{partner: n, cost: cost}
			fw.found = true
		}
		if cost < g.key(id) {
			g.setBest(int(id), cand{partner: k, cost: cost})
		}
	}
}

// foldInIndexed folds a fresh merge node k into the schedule with one
// nearest-first walk: k's best partner ck plus every strict improvement
// of a live node's cached best. A serial section: the walk owns every
// mutation it makes.
func (r *router) foldInIndexed(g *greedyState, k *topology.Node) error {
	fw := &g.fold
	fw.reset(r, g, k, g.makeQuery(k.ID))
	fw.walkRoots()
	if fw.err != nil {
		return fw.err
	}
	r.pairSkipped.Add(fw.skipped)
	r.noteSearch(fw.examined, fw.pops)
	g.setBest(k.ID, fw.ck)
	return nil
}

// axisGap is the distance from cell-unit coordinate c to the cell span
// [lo, hi) of an axis n cells long, open below at 0 and above at n.
func axisGap(c float64, lo, hi, n int) float64 {
	if lo > 0 && c < float64(lo) {
		return float64(lo) - c
	}
	if hi < n && c > float64(hi) {
		return c - float64(hi)
	}
	return 0
}
