package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"unsafe"

	"repro/internal/activity"
	"repro/internal/gating"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/stream"
	"repro/internal/tech"
)

// placedInstance builds an n-sink instance with one of several spatial
// shapes. The adversarial ones stress the index where a uniform grid is
// weakest: dense clusters (overfull cells), a corner hotspot next to a
// sparse far field (rings that stay empty for a long time), a ring
// (equidistant ties), duplicated points (zero merging-segment distance,
// pure ID tie-breaks), a diagonal line (degenerate in one rotated
// coordinate) and every sink at one point (a zero-span, one-cell grid).
// The ISA has k instructions.
func placedInstance(t testing.TB, kind string, n, k int, seed uint64) *Instance {
	t.Helper()
	const side = 4000.0
	rng := rand.New(rand.NewPCG(seed, 0x5a71a1^uint64(n)))
	in := &Instance{Die: geom.Rect{X0: 0, Y0: 0, X1: side, Y1: side}}
	pt := func() geom.Point { return geom.Pt(rng.Float64()*side, rng.Float64()*side) }
	for i := 0; i < n; i++ {
		var p geom.Point
		switch kind {
		case "uniform":
			p = pt()
		case "clustered":
			cx, cy := float64(1+i%3)*side/4, float64(1+(i/3)%3)*side/4
			p = geom.Pt(clampF(cx+rng.NormFloat64()*side*0.03, 0, side),
				clampF(cy+rng.NormFloat64()*side*0.03, 0, side))
		case "hotspot":
			if rng.Float64() < 0.8 {
				p = geom.Pt(rng.Float64()*side*0.12, rng.Float64()*side*0.12)
			} else {
				p = pt()
			}
		case "ring":
			a := rng.Float64() * 2 * math.Pi
			r := (0.30 + 0.15*rng.Float64()) * side
			p = geom.Pt(side/2+r*math.Cos(a), side/2+r*math.Sin(a))
		case "dup":
			c := rng.IntN(5)
			p = geom.Pt(float64(c)*side/5+100, float64(c)*side/7+100)
		case "line":
			x := rng.Float64() * side
			p = geom.Pt(x, clampF(x+rng.NormFloat64()*2, 0, side))
		case "coincident":
			p = geom.Pt(side/3, side/5)
		default:
			t.Fatalf("unknown placement kind %q", kind)
		}
		in.SinkLocs = append(in.SinkLocs, p)
		in.SinkCaps = append(in.SinkCaps, 20+rng.Float64()*80)
	}
	d, err := isa.Generate(isa.GenConfig{NumModules: n, NumInstr: k, Usage: 0.4, Scatter: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.DefaultMarkov().Generate(d, 400, rng)
	in.Profile, err = activity.NewProfile(d, s)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// opaquePolicy hides a gating.Reduction behind a type the router does not
// recognize, so the candidate filter takes its opaque shape (polOpaque):
// both gating arms stay possible for every edge.
type opaquePolicy struct{ r gating.Reduction }

func (o opaquePolicy) Gate(e gating.EdgeInfo) bool { return o.r.Gate(e) }

// opaqueReduction is the default reduction of placedInstance's die behind
// opaquePolicy.
func opaqueReduction(p tech.Params) gating.Policy {
	return opaquePolicy{gating.DefaultReduction(p.Gate.Cin, 4000)}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// checkDeps is the per-merge audit of the greedy's dependent lists: every
// alive node's dependents are alive and partnered with it at the recorded
// position, and every partnered node sits at its depPos in its partner's
// list. It panics naming the merge that broke either property.
func checkDeps(g *greedyState, merge int) {
	for id, ok := range g.alive {
		if !ok {
			continue
		}
		for p, d := range g.deps[id] {
			if !g.alive[d] || g.best[d].partner == nil || g.best[d].partner.ID != id || g.depPos[d] != int32(p) {
				panic(fmt.Sprintf("merge %d: deps[%d][%d] = %d is dead, stale or not partnered with %d",
					merge, id, p, d, id))
			}
		}
		b := g.best[id]
		if b.partner == nil {
			continue // stale: the list check above keeps it out of every list
		}
		if !g.alive[b.partner.ID] {
			panic(fmt.Sprintf("merge %d: node %d best partner %d dead", merge, id, b.partner.ID))
		}
		l := g.deps[b.partner.ID]
		p := g.depPos[id]
		if int(p) >= len(l) || l[p] != int32(id) {
			panic(fmt.Sprintf("merge %d: node %d not at depPos %d of deps[%d] (len %d)",
				merge, id, p, b.partner.ID, len(l)))
		}
	}
}

// TestSpatialMatchesExhaustiveProperty is the differential property test of
// the candidate engine: across 350 random instances — every placement
// shape, every greedy method and gating-policy shape, 2 to 207 sinks, and
// 8, 32, 33 or 70 instructions (below, at and past the 32 the parentP
// floor sums) — the pyramid-walking route must produce the bit-identical
// tree (same digest) as its all-pairs oracle (routeOracle), with the
// per-merge dependent-list audit switched on; NearestNeighbor also routes
// every placement at 2 and 3 sinks. Any admissibility bug in the region or
// candidate floors, any tie-break divergence in the argmin, and any
// staleness bug in the incremental insert/remove path shows up here as a
// digest mismatch or a failed audit.
func TestSpatialMatchesExhaustiveProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("differential property test routes 756 instances")
	}
	depsAudit = checkDeps
	defer func() { depsAudit = nil }()
	p := tech.Default()
	modes := []Options{
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree},                             // polReduce
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, Policy: gating.All{}},       // polAll
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, Policy: gating.None{}},      // polNever
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, Policy: opaqueReduction(p)}, // polOpaque
		{Tech: p, Method: MinClockCapOnly, Drivers: GatedTree},                            // polClassic
		{Tech: p, Method: GreedyDistance, Drivers: BareTree},                              // polDist
		{Tech: p, Method: ActivityDriven, Drivers: GatedTree},                             // polAct
		{Tech: p, Method: ActivityDriven, Drivers: BufferedTree},                          // polAct
		{Tech: p, Method: NearestNeighbor, Drivers: BareTree},                             // polDist, rounds
		{Tech: p, Method: NearestNeighbor, Drivers: BufferedTree},                         // polDist, rounds
	}
	kinds := []string{"uniform", "clustered", "hotspot", "ring", "dup", "line", "coincident"}
	// K steps every two cases, so each mode's run of seven cases (one per
	// kind) meets every K.
	ks := []int{8, 32, 33, 70}

	check := func(name string, in *Instance, opts Options) {
		t.Helper()
		got, s, err := Route(in, opts)
		if err != nil {
			t.Fatalf("%s: indexed route: %v", name, err)
		}
		if want, _ := routeOracle(t, in, opts); got.Digest() != want.Digest() {
			t.Fatalf("%s: indexed tree %s != all-pairs tree %s",
				name, got.Digest()[:12], want.Digest()[:12])
		}
		if s.IndexSearches == 0 {
			t.Fatalf("%s: route did not search the spatial index", name)
		}
	}
	const cases = 350
	met := map[string]bool{}
	for i := 0; i < cases; i++ {
		kind := kinds[i%len(kinds)]
		mi := (i / len(kinds)) % len(modes)
		opts := modes[mi]
		n := 2 + (i*13)%206
		k := ks[(i/2)%len(ks)]
		met[fmt.Sprint(mi, kind)], met[fmt.Sprint(mi, k)] = true, true
		name := fmt.Sprintf("%03d-%s-%s-%s-n%d-k%d", i, kind, opts.Method, opts.Drivers, n, k)
		check(name, placedInstance(t, kind, n, k, uint64(1000+i)), opts)
	}
	if want := len(modes) * (len(kinds) + len(ks)); len(met) != want {
		t.Fatalf("cases cover %d (mode, kind) and (mode, K) combinations, want %d", len(met), want)
	}
	for _, opts := range modes[8:] {
		for ki, kind := range kinds {
			for n := 2; n <= 3; n++ {
				name := fmt.Sprintf("%s-%s-%s-n%d", kind, opts.Method, opts.Drivers, n)
				check(name, placedInstance(t, kind, n, 8, uint64(900+10*ki+n)), opts)
			}
		}
	}
}

// TestRecordLayout pins both hot records to one 64-byte cache line: a cell
// scan streams one line per candidate (candRec) and a region check reads
// one line per region (regionAgg).
func TestRecordLayout(t *testing.T) {
	if n := unsafe.Sizeof(candRec{}); n != 64 {
		t.Errorf("candRec is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(regionAgg{}); n != 64 {
		t.Errorf("regionAgg is %d bytes, want 64", n)
	}
}

// FuzzSpatialIndex drives the index container with an arbitrary op stream
// (insert, remove, noteBest) over a grid whose origin the input shifts by
// up to ~1e9, and cross-checks it against a flat mirror model: membership,
// per-cell bucketing of full records, the per-level region occupant
// counts, floor minima, instruction-word ANDs and boxes exactly equal to
// the values recomputed from the live occupants (all ones for an empty
// region's AND, an inverted box), the monotone maxBest hierarchy the
// fold-in prunes against, and — for query squares of zero and nonzero
// radius inside the grid and beyond each edge — region gaps whose guarded
// distance never exceeds the query's merging-segment distance floor
// (recordDLB) to any live occupant, clamped ones included.
func FuzzSpatialIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252}, int32(0))
	f.Add([]byte("insert-remove-insert"), int32(0))
	f.Add([]byte{255, 255, 0, 0, 128, 64, 32, 16}, int32(0))
	f.Add([]byte("insert-remove-insert"), int32(2100000000))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252}, int32(-2099999999))
	f.Fuzz(func(t *testing.T, data []byte, shift int32) {
		const capIDs = 64
		org := float64(shift) / 2.1 // grid origin, |org| ≤ ~1.02e9
		x := newSpatialGrid(&spatialScratch{}, capIDs, org, org+1000, org-500, org+500, 32)
		type mirror struct {
			live bool
			rec  candRec
			best float64
		}
		var m [capIDs]mirror
		for i := 0; i+2 < len(data); i += 3 {
			id := int32(data[i] % capIDs)
			u := org + float64(data[i+1])*5 - 100 // strays below minU: clamped
			w := org + float64(data[i+2])*5 - 600 // strays below minW: clamped
			switch data[i] % 3 {
			case 0: // insert (skip if live: the greedy never double-inserts)
				if !m[id].live {
					rec := candRec{
						u: u, w: w,
						rad: float64(data[i+1]%16) * 3,
						zu:  float64(data[i+2]) * 2,
						wf:  1 + float64(data[i+1]%8),
						gf:  float64(data[i+1]) + float64(data[i+2])/4,
						a:   float64(data[i+2]%32) * 5,
						id:  id,
						// Two bits clear at most, so ANDs of a few
						// occupants stay non-trivial.
						word: ^(1<<(data[i+1]%32) | 1<<(data[i+2]>>3)),
					}
					x.insert(rec)
					m[id] = mirror{live: true, rec: rec}
				}
			case 1: // remove (removing an absent id must be a no-op)
				x.remove(id)
				m[id].live = false
			case 2: // note a best cost for a live id
				if m[id].live {
					cost := float64(data[i+1]) + float64(data[i+2])/256
					x.noteBest(id, cost)
					if cost > m[id].best {
						m[id].best = cost
					}
				}
			}
		}

		// Membership and bucketing: every live id sits in exactly the cell
		// its clamped coordinates say, with its record intact; dead ids
		// appear nowhere.
		liveCount := 0
		for id := int32(0); id < capIDs; id++ {
			c := x.cellOf[id]
			if !m[id].live {
				if c != -1 {
					t.Fatalf("dead id %d still maps to cell %d", id, c)
				}
				continue
			}
			liveCount++
			ci, cj := x.coords(m[id].rec.u, m[id].rec.w)
			if want := int32(cj*x.cols + ci); c != want {
				t.Fatalf("id %d in cell %d, coords say %d", id, c, want)
			}
			found := 0
			for _, v := range x.cells[c] {
				if v.id == id {
					found++
					if v != m[id].rec {
						t.Fatalf("id %d record %+v differs from inserted %+v", id, v, m[id].rec)
					}
				}
			}
			if found != 1 {
				t.Fatalf("id %d appears %d times in its cell", id, found)
			}
		}
		if x.count != liveCount {
			t.Fatalf("index count %d, mirror %d", x.count, liveCount)
		}
		total := 0
		for _, recs := range x.cells {
			total += len(recs)
		}
		if total != liveCount {
			t.Fatalf("cells hold %d records, mirror %d", total, liveCount)
		}

		// Queries (u, w, radius): the grid's middle, one beyond each edge,
		// and two per op of the first three — one on the op's own point
		// with the radius an insert there gives its record (an occupant's
		// own square: distance 0), one scaled to range past every edge.
		queries := [][3]float64{{org + 437.3, org - 61.9, 0},
			{org - 317.3, org + 12.5, 40}, {org + 1211.9, org - 3.1, 7.5},
			{org + 500.7, org - 577.1, 0}, {org + 255.2, org + 903.3, 120}}
		for i := 0; i+2 < len(data) && i < 9; i += 3 {
			b1, b2 := float64(data[i+1]), float64(data[i+2])
			queries = append(queries, [3]float64{org + b1*5 - 100, org + b2*5 - 600, float64(data[i+1]%16) * 3},
				[3]float64{org + b1*7.3 - 400, org + b2*7.3 - 900, float64(data[i+2]%64) * 4})
		}

		// Every pyramid level must agree with the raster and the mirror:
		// region occupant counts equal the summed cell lengths, floor
		// minima and boxes equal the values recomputed from the live
		// occupants (+Inf minima and an inverted box when empty), maxBest
		// dominates every noted best cost, and every occupied region's
		// guarded gap distance is a floor on the query's merging-segment
		// distance to each occupant.
		inf := math.Inf(1)
		inf32 := float32(inf)
		for l := range x.levels {
			lv := &x.levels[l]
			nr := lv.cols * lv.rows
			sum := make([]int32, nr)
			for c, recs := range x.cells {
				ci, cj := c%x.cols, c/x.cols
				sum[(cj>>lv.shift)*lv.cols+ci>>lv.shift] += int32(len(recs))
			}
			want := make([]regionAgg, nr)
			for rg := range want {
				want[rg] = regionAgg{zuMin: inf, wfMin: inf, gfMin: inf, aMin: inf, and: ^uint32(0),
					uLo: inf32, wLo: inf32, uHi: -inf32, wHi: -inf32}
			}
			regionOf := func(id int32) int {
				ci, cj := x.coords(m[id].rec.u, m[id].rec.w)
				return (cj>>lv.shift)*lv.cols + ci>>lv.shift
			}
			for id := int32(0); id < capIDs; id++ {
				if !m[id].live {
					continue
				}
				r, w := m[id].rec, &want[regionOf(id)]
				w.zuMin, w.wfMin = math.Min(w.zuMin, r.zu), math.Min(w.wfMin, r.wf)
				w.gfMin, w.aMin = math.Min(w.gfMin, r.gf), math.Min(w.aMin, r.a)
				w.and &= r.word
				ra := x.recAgg(&r)
				w.uLo, w.wLo = min(w.uLo, ra.uLo), min(w.wLo, ra.wLo)
				w.uHi, w.wHi = max(w.uHi, ra.uHi), max(w.wHi, ra.wHi)
				if ag := &lv.agg[regionOf(id)]; m[id].best > 0 && ag.maxBest < m[id].best {
					t.Fatalf("level %d maxBest %v below noted best %v",
						l, ag.maxBest, m[id].best)
				}
			}
			for rg := range sum {
				ag, w := &lv.agg[rg], &want[rg]
				if sum[rg] != ag.count {
					t.Fatalf("level %d region %d count %d, cells sum to %d",
						l, rg, ag.count, sum[rg])
				}
				if ag.zuMin != w.zuMin || ag.wfMin != w.wfMin || ag.gfMin != w.gfMin ||
					ag.aMin != w.aMin || ag.and != w.and {
					t.Fatalf("level %d region %d floors (zu %v wf %v gf %v a %v and %#x), exact (zu %v wf %v gf %v a %v and %#x)",
						l, rg, ag.zuMin, ag.wfMin, ag.gfMin, ag.aMin, ag.and,
						w.zuMin, w.wfMin, w.gfMin, w.aMin, w.and)
				}
				if ag.uLo != w.uLo || ag.wLo != w.wLo || ag.uHi != w.uHi || ag.wHi != w.wHi {
					t.Fatalf("level %d region %d box [%v, %v]×[%v, %v], exact [%v, %v]×[%v, %v]",
						l, rg, ag.uLo, ag.uHi, ag.wLo, ag.wHi, w.uLo, w.uHi, w.wLo, w.wHi)
				}
			}
			for _, q := range queries {
				qc := x.query(candRec{u: q[0], w: q[1], rad: q[2]})
				for id := int32(0); id < capIDs; id++ {
					if !m[id].live {
						continue
					}
					r := m[id].rec
					rg := regionOf(id)
					if g, d := x.gapDist(x.regionBD(&qc, l, int32(rg))), qc.recordDLB(&r); g > d {
						t.Fatalf("level %d region %d: query (%v, %v) radius %v gap distance %v exceeds distance %v to occupant %d at (%v, %v) radius %v",
							l, rg, q[0], q[1], q[2], g, d, id, r.u, r.w, r.rad)
					}
				}
			}
		}
	})
}
