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
// seven floats the hot filter reads travel together, so scanning a cell
// streams contiguous memory.
//
// Two bound families drive the pruning (both derived in DESIGN.md §11):
//
//   - Geometric: midpoint Chebyshev distance minus the two radii lower-
//     bounds the merging-segment distance, and WireCap is linear, so the
//     unavoidable joining wire charges at least cWire·d·wfMin.
//   - Gating-aware: Equation 3 charges a gated edge the control-star term
//     (c_ctrl·dist(CP, mid) + C_g)·Ptr, which dominates pair costs on
//     gated trees. Whenever the §4.3 forced-insertion rule is certain to
//     fire — SubtreeCap ≥ Cap ≥ ForceCap at any merge distance — the edge
//     is gated under every possible partner and the star term enters the
//     node's unconditional floor zu; otherwise zu falls back to
//     AttachCap·P, which both gating arms dominate (an ungated edge is
//     charged at parentP ≥ P). On top of zu, the star modes bound the
//     partner side by the minimum over its two gating arms: gated pays the
//     full star cost gf plus wire at min(P_q, P_m); ungated pays attach
//     and wire at parentP ≥ P_q. Either way the distance term carries at
//     least the query's own activity — stop radii no longer depend on the
//     laziest node in the index.
//
// Region aggregates (per-region floor minima, radius maxima, monotone
// best-cost maxima and live occupant counts) are maintained at every
// pyramid level, so one comparison discards a whole region; the hierarchy
// is admissible by construction — a parent region's bound never exceeds
// any child's — which makes the best-first walk's first dominated pop a
// proof that everything still in the heap is dominated too.
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
//     in the serial sections of the merge loop; the parallel phases (the
//     initial scan and the rescans) only read it.
//
// ActivityDriven orders merges by signal probability alone, which no
// midpoint distance bounds, so it routes through the reference greedy.
package core

import (
	"math"

	"repro/internal/gating"
	"repro/internal/topology"
)

// Gating-policy shapes the candidate filter distinguishes. The star
// modes (polAll, polReduce, polOpaque) are the MinSwitchedCap + GatedTree
// configurations whose gated edges carry the control-star term.
const (
	polClassic = iota // lbFloor terms only (MinClockCapOnly, ungated driver modes)
	polDist           // GreedyDistance: the pair cost is the MS distance itself
	polAll            // gating.All — every edge gated, star term unconditional
	polNever          // gating.None — no gates; edges charged at parentP
	polReduce         // gating.Reduction — §4.3 rules resolved where certain
	polOpaque         // unknown Policy — minimum over both gating arms
)

// candRec is one indexed candidate, resident in its grid cell: the seven
// floats the admissible filter reads plus the node ID, padded to one cache
// line so a cell scan streams exactly len(cell) lines. A cell holds an
// immutable copy of greedyState.recs[id] (a node's merging segment and
// floor terms never change after creation).
type candRec struct {
	u, w, rad float64 // rotated MS midpoint and Chebyshev radius
	zu, wf    float64 // unconditional zero-length floor, per-λ wire weight
	gf, a     float64 // star modes: gated-arm zero-length cost, ungated-arm attach cap
	id        int32
	_         int32 // pad to 64 bytes
}

// qlevel is one level of the region pyramid. Level 0 is the cell raster
// itself; level l aggregates 2^l × 2^l cells per region. Aggregates follow
// the same monotone-safe maintenance as the old per-cell floors: insertion
// folds minima in (radii and best costs up), removal leaves them
// stale-but-safe, rebuilds retighten.
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
	_            int32
	_            int64 // pad to 64 bytes
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
// population) are clamped to the boundary cells; clamping both query and
// stored points is a contraction of the Chebyshev metric, so distance
// bounds only under-estimate true separations — admissible, never wrong.
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
	inf := math.Inf(1)
	off := 0
	for i := range lv {
		r := lv[i].cols * lv[i].rows
		lv[i].agg = agg[off : off+r : off+r]
		off += r
		for j := 0; j < r; j++ {
			lv[i].agg[j] = regionAgg{zuMin: inf, wfMin: inf, gfMin: inf, aMin: inf}
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

// coords returns the grid cell of rotated point (u, w), clamped to the
// grid.
func (x *spatialIndex) coords(u, w float64) (ci, cj int) {
	ci = int((u - x.minU) / x.cell)
	cj = int((w - x.minW) / x.cell)
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
		if rec.zu < ag.zuMin {
			ag.zuMin = rec.zu
		}
		if rec.wf < ag.wfMin {
			ag.wfMin = rec.wf
		}
		if rec.gf < ag.gfMin {
			ag.gfMin = rec.gf
		}
		if rec.a < ag.aMin {
			ag.aMin = rec.a
		}
		if rec.rad > ag.maxRad {
			ag.maxRad = rec.rad
		}
	}
	x.count++
}

// remove deletes id from its cell by swap-removal and decrements the live
// counts. Floor minima and radius maxima stay stale-but-safe (same
// monotone direction as ever); rebuilds retighten them. In-cell order is
// not part of the contract: scans take an order-independent argmin.
func (x *spatialIndex) remove(id int32) {
	c := x.cellOf[id]
	if c < 0 {
		return
	}
	s := x.cells[c]
	for i := range s {
		if s[i].id == id {
			s[i] = s[len(s)-1]
			x.cells[c] = s[:len(s)-1]
			break
		}
	}
	x.cellOf[id] = -1
	ci, cj := int(c)%x.cols, int(c)/x.cols
	for l := range x.levels {
		lv := &x.levels[l]
		lv.agg[(cj>>lv.shift)*lv.cols+ci>>lv.shift].count--
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
	q        int32
	qci, qcj int // query's (clamped) grid cell
	qU, qW   float64
	qRad     float64
	qZU, qWf float64
	distMode bool
	starMode bool
	cWire    float64
}

func (g *greedyState) makeQuery(q int) queryCtx {
	rec := &g.recs[q]
	ci, cj := g.idx.coords(rec.u, rec.w)
	return queryCtx{
		q: int32(q), qci: ci, qcj: cj,
		qU: rec.u, qW: rec.w, qRad: rec.rad,
		qZU: rec.zu, qWf: rec.wf,
		distMode: g.polMode == polDist,
		starMode: g.polMode >= polAll,
		cWire:    g.cWire,
	}
}

// regionBD returns the Chebyshev grid-cell distance from the query's cell
// to the nearest cell of region rg at level l.
func (x *spatialIndex) regionBD(qc *queryCtx, l int, rg int32) int {
	lv := &x.levels[l]
	ri, rj := int(rg)%lv.cols, int(rg)/lv.cols
	side := 1 << lv.shift
	iLo, jLo := ri<<lv.shift, rj<<lv.shift
	iHi := min(iLo+side-1, x.cols-1)
	jHi := min(jLo+side-1, x.rows-1)
	return max(axisDist(qc.qci, iLo, iHi), axisDist(qc.qcj, jLo, jHi))
}

// regionLB lower-bounds pairCost(q, m) for every occupant m of region rg,
// given the region's grid distance bd (the caller already computed it for
// the nearest-first ordering — bounds are never paid twice per region)
// at level l: an occupant of a cell at grid distance bd sits at center
// distance ≥ (bd−1)·cell, discounted by the query's radius and the
// region's own maximum occupant radius — the same admissible form as the
// per-candidate filter, evaluated against the region's floor minima. A
// NaN (an ∞ arm multiplied by a zero activity weight) carries no
// information and collapses to 0, which is always admissible — this
// matters because the best-first walk *orders* by these bounds and breaks
// on the first dominated pop; an unsanitized NaN could mis-sort a region
// holding finite candidates.
func (x *spatialIndex) regionLB(qc *queryCtx, l int, rg int32, bd int) float64 {
	ag := &x.levels[l].agg[rg]
	dlb := float64(bd-1)*x.cell - qc.qRad - ag.maxRad
	if dlb < 0 {
		dlb = 0
	}
	var lb float64
	switch {
	case qc.distMode:
		return dlb
	case qc.starMode:
		wf := qc.qWf
		if ag.wfMin < wf {
			wf = ag.wfMin
		}
		lb = ag.gfMin + qc.cWire*dlb*wf
		if u := (ag.aMin + qc.cWire*dlb) * qc.qWf; u < lb {
			lb = u
		}
		lb += qc.qZU
	default:
		wf := qc.qWf
		if ag.wfMin < wf {
			wf = ag.wfMin
		}
		lb = qc.qZU + ag.zuMin + qc.cWire*dlb*wf
	}
	if math.IsNaN(lb) {
		return 0
	}
	return lb
}

// attachIndex resolves the gating-policy mode of the candidate filter,
// registers every sink's candidate record with its memo row and
// reverse-dependent list, lays out the per-worker search scratch and the
// memo/dependent slabs, and builds the grid over the sinks.
func (r *router) attachIndex(g *greedyState, sinks []*topology.Node) {
	g.cWire = r.opts.Tech.WireCap(1)
	g.polMode = polClassic
	switch {
	case r.opts.Method == GreedyDistance:
		g.polMode = polDist
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
// one (gf). Serial sections only.
func (r *router) indexRegister(g *greedyState, n *topology.Node) {
	u, w, rad := n.MSKey()
	zero, wf := r.lbFloor(n)
	rec := candRec{u: u, w: w, rad: rad, zu: zero, wf: wf,
		gf: math.Inf(1), a: math.Inf(1), id: int32(n.ID)}
	if g.polMode >= polAll {
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
// floors and best-cost maxima that loosened monotonically since the last
// build. Triggered O(log n) times; all backing arrays recycle through the
// grid scratch.
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
// (grid distance, then region index) order, so near — hence cheap —
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
	var bds [4]int
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

// region walks one region of level l at grid distance bd: discard, scan
// (level 0), or recurse into the live children nearest-first.
func (sw *searchWalker) region(l int, rg int32, bd int) {
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
	var bds [4]int
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

// scanCell streams one cell's candidate records through the admissible
// filter, the memo and the gated evaluation, folding each survivor into
// the running (cost, then partner ID) argmin. The filter bounds
// pairCost(q, m) from below: the midpoint Chebyshev distance minus the two
// radii lower-bounds the merging-segment distance (WireCap is linear), the
// query side contributes its unconditional zero-length floor zu plus wire
// at its own weight, and in the star modes the partner side is the
// minimum over its two gating arms — gated pays gf plus wire at
// min(P_q, P_m), ungated pays a and wire at parentP ≥ max(P_q, P_m) ≥ P_q.
// Arms a mode rules out carry +Inf and drop out of the minimum. regionLB
// is the same bound over region aggregates. The filter runs before the
// memo probe — pruning a memoized candidate is harmless, because the
// bound proves its cached cost loses the argmin anyway.
func (sw *searchWalker) scanCell(c int32) {
	g, r, n := sw.g, sw.r, sw.n
	q := n.ID
	recs := g.idx.cells[c]
	qU, qW, qRad := sw.qc.qU, sw.qc.qW, sw.qc.qRad
	qZU, qWf := sw.qc.qZU, sw.qc.qWf
	distMode, starMode, cWire := sw.qc.distMode, sw.qc.starMode, sw.qc.cWire
	for i := range recs {
		rec := &recs[i]
		id := rec.id
		if id == sw.qc.q {
			continue
		}
		sw.examined++
		mu, mw, mrad := rec.u, rec.w, rec.rad
		mzu, mwf, mgf, ma := rec.zu, rec.wf, rec.gf, rec.a
		if sw.found {
			du := qU - mu
			if du < 0 {
				du = -du
			}
			if dw := qW - mw; dw > du {
				du = dw
			} else if -dw > du {
				du = -dw
			}
			dlb := du - qRad - mrad
			if dlb < 0 {
				dlb = 0
			}
			lb := dlb
			if starMode {
				wf := qWf
				if mwf < wf {
					wf = mwf
				}
				lb = mgf + cWire*dlb*wf
				pm := qWf
				if mwf > pm {
					pm = mwf
				}
				if u := ma*pm + cWire*dlb*qWf; u < lb {
					lb = u
				}
				lb += qZU
			} else if !distMode {
				wf := qWf
				if mwf < wf {
					wf = mwf
				}
				lb = qZU + mzu + cWire*dlb*wf
			}
			if dominated(lb, sw.out.cost) {
				sw.skipped++
				continue
			}
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
// improvements rewrite best[n].
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

	examined, pops  int
	skipped, cached int64
	err             error
}

func (fw *foldWalker) reset(r *router, g *greedyState, k *topology.Node, qc queryCtx) {
	fw.r, fw.g, fw.k, fw.qc = r, g, k, qc
	fw.ck, fw.found = cand{}, false
	fw.examined, fw.pops = 0, 0
	fw.skipped, fw.cached = 0, 0
	fw.err = nil
}

// walkRoots descends from the top-level regions, nearest-first. The top of
// the pyramid is at most 2×2 by construction.
func (fw *foldWalker) walkRoots() {
	idx := fw.g.idx
	top := len(idx.levels) - 1
	lv := &idx.levels[top]
	var order [4]int32
	var bds [4]int
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

// sortNearest insertion-sorts ≤4 regions by (grid distance, then region
// index) — the deterministic nearest-first visit order.
func sortNearest(rgs []int32, bds []int) {
	for i := 1; i < len(rgs); i++ {
		for j := i; j > 0 && (bds[j] < bds[j-1] || (bds[j] == bds[j-1] && rgs[j] < rgs[j-1])); j-- {
			bds[j], bds[j-1] = bds[j-1], bds[j]
			rgs[j], rgs[j-1] = rgs[j-1], rgs[j]
		}
	}
}

// region walks one region of level l at grid distance bd: discard, scan
// (level 0), or recurse into the live children nearest-first.
func (fw *foldWalker) region(l int, rg int32, bd int) {
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
	var bds [4]int
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

// scanCell streams one cell's candidate records through the admissible
// filter, the owner-first memo and the gated evaluation, folding each
// survivor into ck and applying strict improvements. The per-candidate
// prune threshold is the larger of best[id] and ck — a discarded candidate
// then provably neither becomes ck nor improves best[id].
func (fw *foldWalker) scanCell(c int32) {
	g, r, k := fw.g, fw.r, fw.k
	recs := g.idx.cells[c]
	qU, qW, qRad := fw.qc.qU, fw.qc.qW, fw.qc.qRad
	qZU, qWf := fw.qc.qZU, fw.qc.qWf
	distMode, starMode, cWire := fw.qc.distMode, fw.qc.starMode, fw.qc.cWire
	for i := range recs {
		rec := &recs[i]
		id := rec.id
		if id == fw.qc.q {
			continue
		}
		fw.examined++
		mu, mw, mrad := rec.u, rec.w, rec.rad
		mzu, mwf, mgf, ma := rec.zu, rec.wf, rec.gf, rec.a
		thr := math.Inf(1)
		if fw.found {
			thr = g.best[id].cost
			if fw.ck.cost > thr {
				thr = fw.ck.cost
			}
			du := qU - mu
			if du < 0 {
				du = -du
			}
			if dw := qW - mw; dw > du {
				du = dw
			} else if -dw > du {
				du = -dw
			}
			dlb := du - qRad - mrad
			if dlb < 0 {
				dlb = 0
			}
			lb := dlb
			if starMode {
				wf := qWf
				if mwf < wf {
					wf = mwf
				}
				lb = mgf + cWire*dlb*wf
				pm := qWf
				if mwf > pm {
					pm = mwf
				}
				if u := ma*pm + cWire*dlb*qWf; u < lb {
					lb = u
				}
				lb += qZU
			} else if !distMode {
				wf := qWf
				if mwf < wf {
					wf = mwf
				}
				lb = qZU + mzu + cWire*dlb*wf
			}
			if dominated(lb, thr) {
				fw.skipped++
				continue
			}
		}
		n := g.byID[id]
		var cost float64
		if cc, ok := g.memoGet(int(id), k.ID); ok {
			// Possible when n was just rescanned and already evaluated its
			// pairing with k.
			fw.cached++
			cost = g.fi.MemoCost(cc)
			if !(cost >= 0) {
				fw.err = invariantf("memo row %d[%d] holds impossible cost %v",
					id, k.ID, cost)
				return
			}
		} else {
			cc, pruned, err := r.pairCostGated(n, k, thr)
			if err != nil {
				fw.err = err
				return
			}
			if pruned {
				fw.skipped++
				continue
			}
			g.memoSet(int(id), k.ID, cc)
			cost = cc
		}
		if !fw.found || cost < fw.ck.cost || (cost == fw.ck.cost && n.ID < fw.ck.partner.ID) {
			fw.ck = cand{partner: n, cost: cost}
			fw.found = true
		}
		if cost < g.best[id].cost {
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
	r.pairCached.Add(fw.cached)
	r.noteSearch(fw.examined, fw.pops)
	g.setBest(k.ID, fw.ck)
	return nil
}

// axisDist is the distance from coordinate c to the interval [lo, hi].
func axisDist(c, lo, hi int) int {
	if c < lo {
		return lo - c
	}
	if c > hi {
		return c - hi
	}
	return 0
}
