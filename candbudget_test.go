// Candidate-budget regression guard for the quadtree-walk candidate
// generation. The walk's whole point is that a search inspects a small,
// bounded neighborhood instead of the expanding-ring scans' long tails;
// this pins the p90 of candidates-per-search at N=16384 under a fixed
// budget so a bound regression (a loosened floor, a broken region
// discard) fails CI rather than silently degrading to near-quadratic. It
// also caps the walk's totals: candidates at 300·N and regions visited
// at 230·N, which bounds blind to the merged enable — the query side
// charged only AttachCap·P, parentP floored at max(P_q, P_m) — exceed
// (368·N and 258·N here), as do region floors left stale after removals
// or a cell-rounded region distance (872·N and 545·N). Finally it
// caps the number of searches: orphaned nodes are rescanned lazily,
// only when their lower bound reaches the top of the pair heap, so a
// return to eager per-merge rescans (12.6·N searches here) fails too.
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
	// powers of two; 2048 is 16× the measured p90 of ≤128.
	const budget = 2048
	p50, p90 := s.NeighborhoodQuantile(0.50), s.NeighborhoodQuantile(0.90)
	t.Logf("N=16384: %d searches, p50<=%d p90<=%d candidates/search", s.IndexSearches, p50, p90)
	if p90 > budget {
		t.Errorf("p90 candidates/search = %d, budget %d", p90, budget)
	}
	// Measured at 4,023,453 candidates (246·N) and 3,234,658 regions
	// (197·N) with both gating arms on each side and the summed-word
	// parentP floor in the bounds.
	n := bm.NumSinks()
	t.Logf("N=16384: %d candidates (%.0f·N), %d regions visited (%.0f·N)", s.IndexCandidates,
		float64(s.IndexCandidates)/float64(n), s.IndexRegionsVisited, float64(s.IndexRegionsVisited)/float64(n))
	if limit := 300 * n; s.IndexCandidates > limit {
		t.Errorf("%d index candidates, budget 300·N = %d", s.IndexCandidates, limit)
	}
	if limit := 230 * n; s.IndexRegionsVisited > limit {
		t.Errorf("%d index regions visited, budget 230·N = %d", s.IndexRegionsVisited, limit)
	}
	// Measured at 102,808 (6.3·N): the initial scan, one fold-in per merge
	// and the lazy rescans. Eager rescans took 206,959.
	if limit := 8 * n; s.IndexSearches > limit {
		t.Errorf("%d index searches, budget 8·N = %d", s.IndexSearches, limit)
	}
}
