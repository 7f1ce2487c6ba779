// Candidate-budget regression guard for the quadtree-walk candidate
// generation. The walk's whole point is that a search inspects a small,
// bounded neighborhood instead of the expanding-ring scans' long tails;
// this pins the p90 of candidates-per-search at N=16384 under a fixed
// budget so a bound regression (a loosened floor, a broken region
// discard) fails CI rather than silently degrading to near-quadratic. It
// also caps the walk's totals: candidates at 228·N and regions visited
// at 195·N, about 15% above the measured 198·N and 169·N. Region gaps
// measured to the cell rectangles instead of the occupants' boxes exceed
// them (246·N and 197·N here), as do bounds blind to the merged enable —
// the query side charged only AttachCap·P, parentP floored at
// max(P_q, P_m) — (368·N and 258·N, with cell-rectangle gaps) and region
// floors left stale after removals or a cell-rounded region distance
// (872·N and 545·N). Finally it caps the number of searches: orphaned
// nodes are rescanned lazily, only when their lower bound reaches the top
// of the pair heap, so a return to eager per-merge rescans (12.6·N
// searches here) fails too.
package gatedclock_test

import (
	"testing"

	gatedclock "repro"
)

func TestCandidateBudget16k(t *testing.T) {
	if testing.Short() {
		t.Skip("routes N=16384")
	}
	bm, err := gatedclock.GenerateBenchmark(gatedclock.BenchmarkConfig{
		Name: "candbudget", NumSinks: 16384, Seed: 1, StreamLen: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := gatedclock.NewDesign(bm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Route(gatedclock.GatedReducedOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.IndexSearches == 0 {
		t.Fatal("N=16384 route did not use the spatial index")
	}
	// The quantile reads the log2 histogram, so the observable values are
	// powers of two; 2048 is 32× the measured p90 of ≤64.
	const budget = 2048
	p50, p90 := s.NeighborhoodQuantile(0.50), s.NeighborhoodQuantile(0.90)
	t.Logf("N=16384: %d searches, p50<=%d p90<=%d candidates/search", s.IndexSearches, p50, p90)
	if p90 > budget {
		t.Errorf("p90 candidates/search = %d, budget %d", p90, budget)
	}
	// Measured at 3,249,170 candidates (198·N) and 2,767,725 regions
	// (169·N) with both gating arms on each side, the summed-word parentP
	// floor and region gaps measured to the occupants' boxes.
	n := bm.NumSinks()
	t.Logf("N=16384: %d candidates (%.0f·N), %d regions visited (%.0f·N)", s.IndexCandidates,
		float64(s.IndexCandidates)/float64(n), s.IndexRegionsVisited, float64(s.IndexRegionsVisited)/float64(n))
	if limit := 228 * n; s.IndexCandidates > limit {
		t.Errorf("%d index candidates, budget 228·N = %d", s.IndexCandidates, limit)
	}
	if limit := 195 * n; s.IndexRegionsVisited > limit {
		t.Errorf("%d index regions visited, budget 195·N = %d", s.IndexRegionsVisited, limit)
	}
	// Measured at 102,808 (6.3·N): the initial scan, one fold-in per merge
	// and the lazy rescans. Eager rescans took 206,959.
	if limit := 8 * n; s.IndexSearches > limit {
		t.Errorf("%d index searches, budget 8·N = %d", s.IndexSearches, limit)
	}
}

// TestPairEvalBudget guards the greedy schedules that used to scan all
// pairs: NearestNeighbor's rounds, which build the paper's buffered
// baseline, and ActivityDriven. Both must walk the pyramid, and their
// pair evaluations must stay linear in N: r5 buffered measured 19,689
// (6.3·N) against 15,383,252 (4,961·N) for the all-pairs nominations, and
// r2 activity-driven 9,049 (15.1·N) against 1,766,752 (2,954·N) for the
// reference greedy. Two routes of a few tens of milliseconds, so it runs
// in every `go test`, -short included.
func TestPairEvalBudget(t *testing.T) {
	activity := gatedclock.GatedReducedOptions()
	activity.Method = gatedclock.ActivityDriven
	for _, c := range []struct {
		bench, label string
		opts         gatedclock.Options
		perN         int
	}{
		{"r5", "buffered", gatedclock.BufferedOptions(), 10},
		{"r2", "activity-driven", activity, 25},
	} {
		d, err := gatedclock.NewDesign(gatedclock.MustStandardBenchmark(c.bench))
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Route(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		s, n := res.Stats, d.Bench.NumSinks()
		t.Logf("%s %s: %d pair evals (%.1f·N), %d index searches", c.bench, c.label,
			s.PairEvals, float64(s.PairEvals)/float64(n), s.IndexSearches)
		if s.IndexSearches == 0 {
			t.Errorf("%s %s did not search the spatial index", c.bench, c.label)
		}
		if limit := c.perN * n; s.PairEvals > limit {
			t.Errorf("%s %s: %d pair evals, budget %d·N = %d", c.bench, c.label, s.PairEvals, c.perN, limit)
		}
	}
}
