package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

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
func placedInstance(t testing.TB, kind string, n int, seed uint64) *Instance {
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
	d, err := isa.Generate(isa.GenConfig{NumModules: n, NumInstr: 8, Usage: 0.4, Scatter: 0.3}, rng)
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

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// TestSpatialMatchesExhaustiveProperty is the differential property test of
// the candidate engine: across 200 random instances — every placement
// shape, every indexed method, 2 to 207 sinks — the pyramid-walking fast
// path must produce the bit-identical tree (same digest) as the reference
// greedy's exhaustive all-pairs scan (Options.Reference), with the
// per-merge dependent-list audit switched on. Any admissibility bug in
// the region or candidate floors, any tie-break divergence in the argmin,
// and any staleness bug in the incremental insert/remove path shows up
// here as a digest mismatch or a failed audit.
func TestSpatialMatchesExhaustiveProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("differential property test routes 400 instances")
	}
	debugDepsCheck = true
	defer func() { debugDepsCheck = false }()
	p := tech.Default()
	modes := []Options{
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree},                        // polReduce
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, Policy: gating.All{}},  // polAll
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, Policy: gating.None{}}, // polNever
		{Tech: p, Method: MinClockCapOnly, Drivers: GatedTree},                       // polClassic
		{Tech: p, Method: GreedyDistance, Drivers: BareTree},                         // polDist
	}
	kinds := []string{"uniform", "clustered", "hotspot", "ring", "dup", "line", "coincident"}

	const cases = 200
	for i := 0; i < cases; i++ {
		kind := kinds[i%len(kinds)]
		opts := modes[(i/len(kinds))%len(modes)]
		n := 2 + (i*13)%206
		name := fmt.Sprintf("%03d-%s-%s-n%d", i, kind, opts.Method, n)
		in := placedInstance(t, kind, n, uint64(1000+i))

		fast, fs, err := Route(in, opts)
		if err != nil {
			t.Fatalf("%s: indexed route: %v", name, err)
		}
		refOpts := opts
		refOpts.Reference = true
		ref, _, err := Route(in, refOpts)
		if err != nil {
			t.Fatalf("%s: reference route: %v", name, err)
		}
		if fast.Digest() != ref.Digest() {
			t.Fatalf("%s: indexed tree %s != reference tree %s",
				name, fast.Digest()[:12], ref.Digest()[:12])
		}
		if fs.IndexSearches == 0 {
			t.Fatalf("%s: route did not search the spatial index", name)
		}
	}
}

// FuzzSpatialIndex drives the index container with an arbitrary op stream
// (insert, remove, noteBest) and cross-checks it against a flat mirror
// model: membership, per-cell bucketing of full records, the per-level
// region occupant counts, the admissible min/max aggregates, and the
// monotone maxBest hierarchy the best-first walk prunes against.
func FuzzSpatialIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252})
	f.Add([]byte("insert-remove-insert"))
	f.Add([]byte{255, 255, 0, 0, 128, 64, 32, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		const capIDs = 64
		x := newSpatialGrid(&spatialScratch{}, capIDs, 0, 1000, -500, 500, 32)
		type mirror struct {
			live bool
			rec  candRec
			best float64
		}
		var m [capIDs]mirror
		for i := 0; i+2 < len(data); i += 3 {
			id := int32(data[i] % capIDs)
			u := float64(data[i+1])*5 - 100 // strays below minU: clamped
			w := float64(data[i+2])*5 - 600 // strays below minW: clamped
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

		// Every pyramid level must agree with the raster: region occupant
		// counts equal the summed cell lengths, the floor minima bound every
		// occupant's terms from below, maxRad bounds every radius from
		// above, and maxBest dominates every noted best cost. (Minima may
		// sit strictly below all live occupants after removals —
		// stale-but-safe is the contract; they may never sit above.)
		for l := range x.levels {
			lv := &x.levels[l]
			sum := make([]int32, lv.cols*lv.rows)
			for c, recs := range x.cells {
				ci, cj := c%x.cols, c/x.cols
				sum[(cj>>lv.shift)*lv.cols+ci>>lv.shift] += int32(len(recs))
			}
			for rg := range sum {
				if sum[rg] != lv.agg[rg].count {
					t.Fatalf("level %d region %d count %d, cells sum to %d",
						l, rg, lv.agg[rg].count, sum[rg])
				}
			}
			for id := int32(0); id < capIDs; id++ {
				if !m[id].live {
					continue
				}
				r := m[id].rec
				ci, cj := x.coords(r.u, r.w)
				ag := &lv.agg[(cj>>lv.shift)*lv.cols+ci>>lv.shift]
				if ag.zuMin > r.zu || ag.wfMin > r.wf ||
					ag.gfMin > r.gf || ag.aMin > r.a {
					t.Fatalf("level %d minima exceed occupant %d: %+v", l, id, r)
				}
				if ag.maxRad < r.rad {
					t.Fatalf("level %d maxRad %v below occupant radius %v",
						l, ag.maxRad, r.rad)
				}
				if m[id].best > 0 && ag.maxBest < m[id].best {
					t.Fatalf("level %d maxBest %v below noted best %v",
						l, ag.maxBest, m[id].best)
				}
			}
		}
	})
}
