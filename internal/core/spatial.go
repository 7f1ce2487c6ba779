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
// Region aggregates (exact per-region floor minima, instruction-word ANDs
// and bounding boxes of the occupants' merging-segment squares, monotone
// best-cost maxima and live occupant counts) are maintained at every
// pyramid level, so one comparison discards a whole region; the hierarchy
// is admissible by construction — a parent region's bound never exceeds
// any child's, and a region's distance to the query is the square-to-box
// gap, a floor on the merging-segment distance to every occupant — so a
// discarded region provably holds no candidate the walk could still need.
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
// the instruction-word AND and the box are exact over the live occupants:
// insertion folds them in, removal recomputes them (remove). Best-cost
// maxima only grow between rebuilds.
type qlevel struct {
	cols, rows int
	shift      uint // log2 cells per region side
	agg        []regionAgg
}

// regionAgg packs one region's aggregates into a single cache line, the
// region-level mirror of candRec: a bound check (regionBD, regionLB and
// the occupancy and dominance tests around them) reads every field, so the
// walk pays one line per region. The box bounds the live occupants'
// merging-segment squares (rotated midpoint ± Chebyshev radius) in cell
// units relative to (minU, minW), rounded outward to float32; an empty
// region holds an inverted box (+Inf lo, −Inf hi).
type regionAgg struct {
	zuMin, wfMin float64
	gfMin, aMin  float64
	maxBest      float64 // monotone max of cached best[n].cost over occupants
	count        int32   // live occupants
	and          uint32  // AND of the live occupants' words; all ones when empty
	uLo, wLo     float32 // box lower corner, rounded down
	uHi, wHi     float32 // box upper corner, rounded up
}

// emptyFloors resets the region's floors to those of an empty region:
// +Inf minima, an all-ones word and an inverted box.
func (ag *regionAgg) emptyFloors() {
	inf := math.Inf(1)
	ag.zuMin, ag.wfMin, ag.gfMin, ag.aMin, ag.and = inf, inf, inf, inf, ^uint32(0)
	ag.uLo, ag.wLo, ag.uHi, ag.wHi = float32(inf), float32(inf), float32(-inf), float32(-inf)
}

// fold folds one occupant's (recAgg) or one child region's floor minima,
// word AND and box into the region's.
func (ag *regionAgg) fold(k *regionAgg) {
	if k.zuMin < ag.zuMin {
		ag.zuMin = k.zuMin
	}
	if k.wfMin < ag.wfMin {
		ag.wfMin = k.wfMin
	}
	if k.gfMin < ag.gfMin {
		ag.gfMin = k.gfMin
	}
	if k.aMin < ag.aMin {
		ag.aMin = k.aMin
	}
	ag.and &= k.and
	if k.uLo < ag.uLo {
		ag.uLo = k.uLo
	}
	if k.wLo < ag.wLo {
		ag.wLo = k.wLo
	}
	if k.uHi > ag.uHi {
		ag.uHi = k.uHi
	}
	if k.wHi > ag.wHi {
		ag.wHi = k.wHi
	}
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
// population) are clamped to the boundary cells, but every region box and
// query square keeps its true position, so a clamped occupant is bounded
// as exactly as any other.
type spatialIndex struct {
	minU, minW float64
	cell, inv  float64 // cell side in rotated units, > 0, and its inverse
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
	x := &spatialIndex{minU: minU, minW: minW, cell: cell, inv: 1 / cell, cols: cols, rows: rows, scr: scr}

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
	return (u - x.minU) * x.inv, (w - x.minW) * x.inv
}

// recAgg is the one-occupant aggregate of rec: its floor terms, its word
// and its merging-segment square in cell units, rounded outward.
func (x *spatialIndex) recAgg(rec *candRec) regionAgg {
	fu, fw := x.cellPos(rec.u, rec.w)
	fr := rec.rad * x.inv
	return regionAgg{zuMin: rec.zu, wfMin: rec.wf, gfMin: rec.gf, aMin: rec.a, and: rec.word,
		uLo: down32(fu - fr), wLo: down32(fw - fr), uHi: up32(fu + fr), wHi: up32(fw + fr)}
}

// down32 and up32 round v to a float32 toward −∞ and +∞.
func down32(v float64) float32 {
	f := float32(v)
	if float64(f) > v {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

func up32(v float64) float32 {
	f := float32(v)
	if float64(f) < v {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
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

// insert buckets rec into its cell and folds its floor terms and square
// into the aggregates of every pyramid level — minima only shrink and
// boxes only grow, so parent bounds never exceed a child's (the hierarchy
// the best-first walk's early stop relies on). Serial sections only.
func (x *spatialIndex) insert(rec candRec) {
	ci, cj := x.coords(rec.u, rec.w)
	c := cj*x.cols + ci
	x.cellOf[rec.id] = int32(c)
	x.cells[c] = append(x.cells[c], rec)
	ra := x.recAgg(&rec)
	for l := range x.levels {
		lv := &x.levels[l]
		ag := &lv.agg[(cj>>lv.shift)*lv.cols+ci>>lv.shift]
		ag.count++
		ag.fold(&ra)
	}
	x.count++
}

// remove deletes id from its cell by swap-removal, decrements the live
// counts and keeps every floor exact: the cell's minima, word AND and box
// are recomputed from its remaining records, then each ancestor's from
// its ≤4 children, up to the first level the removal left unchanged —
// every level above it folds unchanged children. An emptied
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
				ra := x.recAgg(&s[i])
				ag.fold(&ra)
			}
		} else {
			clv := &x.levels[l-1]
			for kj := rj * 2; kj <= rj*2+1 && kj < clv.rows; kj++ {
				for ki := ri * 2; ki <= ri*2+1 && ki < clv.cols; ki++ {
					ag.fold(&clv.agg[kj*clv.cols+ki])
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
	rec        candRec // the query's own record: position, radius, floors, word
	qci, qcj   int     // query's (clamped) grid cell
	quLo, quHi float64 // query's merging-segment square in cell units, unclamped
	qwLo, qwHi float64
	mode       int // polMode
	cWire      float64
	freq       *lowFreq
}

// lowFreq is the per-route slice of the IFT the parentP floor reads:
// P(I_k) for the instructions 0–31 that candRec.word carries.
type lowFreq [32]float64

func (g *greedyState) makeQuery(q int) queryCtx {
	qc := g.idx.query(g.recs[q])
	qc.mode, qc.cWire, qc.freq = g.polMode, g.cWire, &g.freq
	return qc
}

// query places rec as the query side of a walk: its clamped home cell and
// its merging-segment square in cell units, unclamped.
func (x *spatialIndex) query(rec candRec) queryCtx {
	ci, cj := x.coords(rec.u, rec.w)
	fu, fw := x.cellPos(rec.u, rec.w)
	fr := rec.rad * x.inv
	return queryCtx{rec: rec, qci: ci, qcj: cj, quLo: fu - fr, quHi: fu + fr, qwLo: fw - fr, qwHi: fw + fr}
}

// regionBD returns the Chebyshev gap, in cell units, from the query's
// merging-segment square to the box of region rg at level l, negative when
// the two overlap. Every occupant's square lies inside the box, so the gap
// never exceeds the gap between the query's square and any occupant's —
// recordDLB, a floor on their merging-segment distance.
func (x *spatialIndex) regionBD(qc *queryCtx, l int, rg int32) float64 {
	ag := &x.levels[l].agg[rg]
	return max(float64(ag.uLo)-qc.quHi, qc.quLo-float64(ag.uHi),
		float64(ag.wLo)-qc.qwHi, qc.qwLo-float64(ag.wHi))
}

// gapDist converts a region gap into a floor on the Chebyshev distance
// between merging segments. The 1e-9-cell guard exceeds the float64
// rounding of the cell-unit squares, which is relative to u − minU in cell
// units and therefore tiny at any coordinate offset; the float32 box is
// rounded outward on its own.
func (x *spatialIndex) gapDist(bd float64) float64 {
	return max(0, bd-1e-9) * x.cell
}

// floorLB lower-bounds cost(q, m) for every partner m whose floor
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
// cost(q, m), computed from the two records alone, strictly dominates
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

// regionLB lower-bounds cost(q, m) for every occupant m of region rg,
// given the region's gap bd (the caller already computed it for the
// nearest-first ordering — gaps are never paid twice per region) at level
// l: every occupant's merging segment sits at Chebyshev distance
// ≥ gapDist(bd) from the query's — floorLB evaluated against the region's
// floor minima, with parentP floored by the query's word OR'd with the
// region's word AND. Unlike the record bound it runs in one stage: a
// two-stage region check routed the 100k-sink instance no faster. A NaN
// carries no information and collapses to 0, which is always admissible.
func (x *spatialIndex) regionLB(qc *queryCtx, l int, rg int32, bd float64) float64 {
	ag := &x.levels[l].agg[rg]
	dlb := x.gapDist(bd)
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
	// nodes inherit a dying node's), zero-length and three-index capped so
	// append growth reallocates off-slab instead of aliasing a neighbor.
	rowSlab := make([]memoEntry, len(sinks)*memoRowInit)
	depSlab := make([]int32, len(sinks)*depInit)
	g.scratch = make([]searchScratch, max(r.workers, 1))
	g.gridScr = &spatialScratch{}
	for i, n := range sinks {
		r.indexRegister(g, n)
		row, dep := i*memoRowInit, i*depInit
		g.rows[n.ID] = rowSlab[row : row : row+memoRowInit]
		g.deps[n.ID] = depSlab[dep : dep : dep+depInit]
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

// indexAdd registers a fresh merge node and enters it into the live grid.
// The node inherits the memo row and reverse-dependent list of donor, one
// of the pair it replaces, emptied: a merge kills two nodes and creates
// one, so no merge allocates either. Serial sections only.
func (r *router) indexAdd(g *greedyState, n *topology.Node, donor int) {
	r.indexRegister(g, n)
	g.idx.insert(g.recs[n.ID])
	g.rows[n.ID], g.rows[donor] = g.rows[donor][:0], nil
	g.deps[n.ID], g.deps[donor] = g.deps[donor][:0], nil
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

// walker is the region walk of both pyramid duties: a nearest-first
// depth-first descent that discards a region at entry when its admissible
// bound strictly dominates the duty's threshold, and visits live children
// in (gap, then region index) order, so near — hence cheap — candidates
// tighten the threshold before far regions are judged. The visit order
// only affects which regions get discarded, never the result:
// strict-dominance discards cannot hide the argmin or a tie under the
// (cost, then partner ID) total order, so the walk returns the
// bit-identical partner an all-pairs scan would.
//
// A best-partner search (bestPartnerIndexed) finds n's cheapest partner;
// its home cell is scanned first (seed), so a running best exists — and
// dominance pruning bites — before anything else is visited.
//
// The fold-in (fold set, foldInIndexed) serves double duty: it computes
// the fresh node n's own best partner and applies every strict
// improvement cost(m, n) < best[m].cost as it finds it. Costs are
// evaluated owner-first as cost(m, n), exactly as the reference fold-in
// does, and n carries the highest live ID, so ties keep the incumbent and
// only strict improvements rewrite best[m]. The improvement threshold is
// m's heap key (greedyState.key), which for a stale m is
// staleKey(best[m].cost): every other live node costs m at least that, so
// an n strictly below it is m's exact argmin and clears the mark. A region
// is discarded only when its bound strictly dominates BOTH duties'
// thresholds: the running best and the region's monotone best-cost
// maximum (≥ best[m] for every occupant), so it provably holds neither
// n's partner nor an improvable node. An applied improvement only lowers
// best[m], and m is never visited twice, so applying it mid-walk leaves
// every pruning threshold the walk still reads admissible.
//
// Until a first best exists nothing is pruned: the query must always end
// up with a partner, however expensive.
type walker struct {
	r    *router
	g    *greedyState
	n    *topology.Node // the query
	qc   queryCtx
	out  cand  // running best partner of n
	fold bool  // fold-in duty (see above)
	seed int32 // home cell, already scanned; excluded from the descent

	found bool

	examined, pops  int
	skipped, cached int64
	err             error
}

func (w *walker) reset(r *router, g *greedyState, n *topology.Node, fold bool) {
	*w = walker{r: r, g: g, n: n, qc: g.makeQuery(n.ID), fold: fold, seed: -1}
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

// region walks one live region of level l at gap bd: discard, scan
// (level 0), or recurse into its live children nearest-first. Level
// len(levels) is a virtual root whose children are the ≤2×2 top level.
func (w *walker) region(l int, rg int32, bd float64) {
	idx := w.g.idx
	ri, rj := 0, 0
	if l < len(idx.levels) {
		if l == 0 && rg == w.seed {
			return // home cell: scanned before the descent started
		}
		lv := &idx.levels[l]
		ag := &lv.agg[rg]
		if w.found {
			thr := w.out.cost
			if w.fold && ag.maxBest > thr {
				thr = ag.maxBest
			}
			if dominated(idx.regionLB(&w.qc, l, rg, bd), thr) {
				w.skipped += int64(ag.count)
				return
			}
		}
		w.pops++
		if l == 0 {
			if w.fold {
				w.foldCell(rg)
			} else {
				w.scanCell(rg)
			}
			return
		}
		ri, rj = int(rg)%lv.cols, int(rg)/lv.cols
	}
	cl := l - 1
	clv := &idx.levels[cl]
	var kids [4]int32
	var bds [4]float64
	cnt := 0
	for cj := rj * 2; cj <= rj*2+1 && cj < clv.rows; cj++ {
		for ci := ri * 2; ci <= ri*2+1 && ci < clv.cols; ci++ {
			crg := int32(cj*clv.cols + ci)
			if clv.agg[crg].count == 0 {
				continue
			}
			kids[cnt] = crg
			bds[cnt] = idx.regionBD(&w.qc, cl, crg)
			cnt++
		}
	}
	sortNearest(kids[:cnt], bds[:cnt])
	for i := 0; i < cnt; i++ {
		w.region(cl, kids[i], bds[i])
		if w.err != nil {
			return
		}
	}
}

// scanCell streams one cell's candidate records through the record bound
// (recordPruned), the memo and the gated evaluation, folding each survivor
// into the running (cost, then partner ID) argmin.
func (w *walker) scanCell(c int32) {
	g, r, n := w.g, w.r, w.n
	q := n.ID
	recs := g.idx.cells[c]
	for i := range recs {
		rec := &recs[i]
		id := rec.id
		if id == w.qc.rec.id {
			continue
		}
		w.examined++
		if w.found && w.qc.recordPruned(rec, w.out.cost) {
			w.skipped++
			continue
		}
		m := g.byID[id]
		var cost float64
		if cc, ok := g.memoGet(q, int(id)); ok {
			w.cached++
			cost = g.fi.MemoCost(cc)
			if !(cost >= 0) {
				w.err = invariantf("memo row %d[%d] holds impossible cost %v",
					q, id, cost)
				return
			}
		} else {
			thr := math.Inf(1)
			if w.found {
				thr = w.out.cost
			}
			cc, pruned, err := r.pairCostGated(n, m, thr)
			if err != nil {
				w.err = err
				return
			}
			if pruned {
				w.skipped++
				continue
			}
			g.memoSet(q, int(id), cc)
			cost = cc
		}
		if !w.found || cost < w.out.cost || (cost == w.out.cost && m.ID < w.out.partner.ID) {
			w.out = cand{partner: m, cost: cost}
			w.found = true
		}
	}
}

// foldCell is the fold-in's cell scan: it streams one cell's candidate
// records through the record bound (recordPruned) and the gated
// evaluation, folding each survivor into n's running best and applying
// strict improvements. The per-candidate prune threshold is the larger of
// best[id] and the running best — a discarded candidate then provably
// neither becomes n's partner nor improves best[id]. There is no memo
// probe: n is fresh and no search runs between its merge and this walk,
// so no row holds it yet; the evaluated costs are stored for the rescans
// that follow.
func (w *walker) foldCell(c int32) {
	g, r, k := w.g, w.r, w.n
	recs := g.idx.cells[c]
	for i := range recs {
		rec := &recs[i]
		id := rec.id
		if id == w.qc.rec.id {
			continue
		}
		w.examined++
		thr := math.Inf(1)
		if w.found {
			thr = g.best[id].cost
			if w.out.cost > thr {
				thr = w.out.cost
			}
			if w.qc.recordPruned(rec, thr) {
				w.skipped++
				continue
			}
		}
		m := g.byID[id]
		cost, pruned, err := r.pairCostGated(m, k, thr)
		if err != nil {
			w.err = err
			return
		}
		if pruned {
			w.skipped++
			continue
		}
		g.memoSet(int(id), k.ID, cost)
		if !w.found || cost < w.out.cost || (cost == w.out.cost && m.ID < w.out.partner.ID) {
			w.out = cand{partner: m, cost: cost}
			w.found = true
		}
		if cost < g.key(id) {
			g.setBest(int(id), cand{partner: k, cost: cost})
		}
	}
}

// searchScratch is one worker's private best-partner walker, padded apart
// so adjacent workers never share a cache line.
type searchScratch struct {
	search walker
	_      [64]byte
}

// bestPartnerIndexed finds n's cheapest partner among the live nodes by a
// walk of the region pyramid: it scans the query's home cell first (a
// near — hence tight — initial best), then lets the walker descend the
// pyramid nearest-first, discarding every region whose admissible bound
// strictly dominates the running best. The neighborhood examined tracks
// the local density, not N. Candidates go through the record filter, the
// memo and the gated bound, under the reference scan's (cost, then
// partner ID) argmin; strict-dominance pruning never discards a potential
// tie, so the returned cand is bit-identical to the reference one. Safe
// to call concurrently for distinct n with distinct worker indices w; the
// index is read-only here.
func (r *router) bestPartnerIndexed(g *greedyState, n *topology.Node, w int) (cand, error) {
	idx := g.idx
	sw := &g.scratch[w].search
	sw.reset(r, g, n, false)
	if rg0 := int32(sw.qc.qcj*idx.cols + sw.qc.qci); idx.levels[0].agg[rg0].count > 0 {
		sw.seed = rg0
		sw.pops++
		sw.scanCell(rg0)
	}
	if sw.err == nil {
		sw.region(len(idx.levels), 0, 0)
	}
	if sw.err != nil {
		return cand{}, sw.err
	}
	r.pairSkipped.Add(sw.skipped)
	r.pairCached.Add(sw.cached)
	r.noteSearch(sw.examined, sw.pops)
	return sw.out, nil
}

// foldInIndexed folds a fresh merge node k into the schedule with one
// nearest-first walk under the fold-in duty: k's best partner plus every
// strict improvement of a live node's cached best. A serial section: the
// walk owns every mutation it makes.
func (r *router) foldInIndexed(g *greedyState, k *topology.Node) error {
	fw := &g.fold
	fw.reset(r, g, k, true)
	fw.region(len(g.idx.levels), 0, 0)
	if fw.err != nil {
		return fw.err
	}
	r.pairSkipped.Add(fw.skipped)
	r.noteSearch(fw.examined, fw.pops)
	g.setBest(k.ID, fw.out)
	return nil
}
