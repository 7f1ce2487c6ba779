// Observability hooks of the router: per-merge and per-phase spans for
// Options.Tracer and the core instrument set for Options.Metrics. Both are
// read-only taps — they never feed back into the construction, so traced
// and metered runs stay bit-identical to silent ones (golden-tested).
//
// The disabled path (nil tracer, nil registry — the default) is one branch
// per merge and performs no allocations and no atomic writes beyond the
// counters Stats already keeps; TestObsDisabledZeroAllocs and
// BenchmarkRouteObs guard that.
package core

import (
	"time"

	"repro/internal/obs"
	"repro/internal/topology"
)

// Core instrument names, as they appear in -metrics dumps and on
// /debug/vars. Exported so tests and the CLI reference one spelling.
const (
	MetricMerges       = "core_merges_total"
	MetricSnakes       = "core_snakes_total"
	MetricPairEvals    = "core_pair_evals_total"
	MetricPairCached   = "core_pair_evals_cached_total"
	MetricPairSkipped  = "core_pair_evals_skipped_total"
	MetricMergeCost    = "core_merge_cost_ff"
	MetricHeapLen      = "core_heap_len"
	MetricHeapLenMax   = "core_heap_len_max"
	MetricPhaseInitNs  = "core_phase_init_ns"
	MetricPhaseGreedNs = "core_phase_greedy_ns"
	MetricPhaseEmbedNs = "core_phase_embed_ns"

	MetricMemoStores  = "core_pair_memo_stores_total"
	MetricIdxSearches = "core_index_searches_total"
	MetricIdxCands    = "core_index_candidates_total"
	MetricIdxRegions  = "core_index_regions_visited_total"
	MetricIdxRebuilds = "core_index_rebuilds_total"
	MetricIdxNeighb   = "core_index_neighborhood_size"
	MetricIdxNeighP50 = "core_index_neighborhood_p50"
	MetricIdxNeighP90 = "core_index_neighborhood_p90"
)

// coreInstruments caches the registry lookups for one routing run so the
// merge loop updates instruments with plain atomic ops, never touching the
// registry lock.
type coreInstruments struct {
	merges, snakes       *obs.Counter
	evals, cached        *obs.Counter
	skipped              *obs.Counter
	memoStores           *obs.Counter
	idxSearches          *obs.Counter
	idxCands, idxRegions *obs.Counter
	idxRebuilds          *obs.Counter
	idxNeighb            *obs.Histogram
	idxNeighP50          *obs.Gauge
	idxNeighP90          *obs.Gauge
	mergeCost            *obs.Histogram
	heapLen, heapLenMax  *obs.Gauge
	phaseInit, phaseGrdy *obs.Gauge
	phaseEmbed           *obs.Gauge
}

// newCoreInstruments registers (or finds) the core instruments on reg.
func newCoreInstruments(reg *obs.Registry) *coreInstruments {
	if reg == nil {
		return nil
	}
	return &coreInstruments{
		merges:     reg.Counter(MetricMerges, "bottom-up zero-skew merges performed"),
		snakes:     reg.Counter(MetricSnakes, "merges that required wire elongation (snaking)"),
		evals:      reg.Counter(MetricPairEvals, "candidate pair costs fully evaluated (merges solved)"),
		cached:     reg.Counter(MetricPairCached, "candidate lookups served from the pair-cost memo"),
		skipped:    reg.Counter(MetricPairSkipped, "candidates discarded by the admissible lower bound"),
		memoStores: reg.Counter(MetricMemoStores, "pair costs written into the memo (memo-eligible misses)"),
		idxSearches: reg.Counter(MetricIdxSearches,
			"spatial-index pyramid searches (best-partner + fold-in)"),
		idxCands:   reg.Counter(MetricIdxCands, "candidates emitted by the spatial index"),
		idxRegions: reg.Counter(MetricIdxRegions, "pyramid regions a search entered (survived occupancy + dominance checks)"),
		idxRebuilds: reg.Counter(MetricIdxRebuilds,
			"spatial-grid rebuilds (active set halved, or a new nearest-neighbour round)"),
		idxNeighb: reg.Histogram(MetricIdxNeighb,
			"candidates examined per spatial-index search", obs.ExpBuckets(1, 2, 12)),
		idxNeighP50: reg.Gauge(MetricIdxNeighP50,
			"p50 candidates per spatial-index search, latest run (log2-bucket upper bound)"),
		idxNeighP90: reg.Gauge(MetricIdxNeighP90,
			"p90 candidates per spatial-index search, latest run (log2-bucket upper bound)"),
		mergeCost: reg.Histogram(MetricMergeCost, "Equation-3 switched-capacitance cost of selected merges (fF)",
			obs.ExpBuckets(1, 2, 24)),
		heapLen:    reg.Gauge(MetricHeapLen, "lazy-deletion pair-heap length after the latest merge"),
		heapLenMax: reg.Gauge(MetricHeapLenMax, "maximum pair-heap length seen"),
		phaseInit:  reg.Gauge(MetricPhaseInitNs, "wall time of the initial best-partner scan (ns)"),
		phaseGrdy:  reg.Gauge(MetricPhaseGreedNs, "wall time of the greedy merge loop (ns)"),
		phaseEmbed: reg.Gauge(MetricPhaseEmbedNs, "wall time of embedding and validation (ns)"),
	}
}

// obsEnabled reports whether any observability sink is attached; the merge
// loops consult it before capturing timestamps.
func (r *router) obsEnabled() bool { return r.tracer != nil || r.inst != nil }

// observeMerge is the per-merge observability hook of the one-pair greedy.
// start is the zero time when the caller skipped the timestamp (disabled
// path); heapDepth is the pair heap's length after the merge. The early
// return keeps the disabled path free of allocations and atomics.
func (r *router) observeMerge(start time.Time, a, b, k *topology.Node, cost float64, snaked bool, heapDepth int) {
	if r.tracer == nil && r.inst == nil {
		return
	}
	if r.inst != nil {
		r.inst.mergeCost.Observe(cost)
		r.inst.heapLen.Set(int64(heapDepth))
		r.inst.heapLenMax.SetMax(int64(heapDepth))
	}
	if r.tracer == nil {
		return
	}
	evals := r.pairEvals.Load()
	cached := r.pairCached.Load()
	skipped := r.pairSkipped.Load()
	r.tracer.Span(obs.Span{
		Kind:      obs.SpanMerge,
		Start:     start,
		Dur:       time.Since(start),
		Merge:     r.stats.Merges,
		A:         a.ID,
		B:         b.ID,
		K:         k.ID,
		Cost:      cost,
		Snaked:    snaked,
		Evals:     evals - r.lastEvals,
		Cached:    cached - r.lastCached,
		Skipped:   skipped - r.lastSkipped,
		HeapDepth: heapDepth,
	})
	r.lastEvals, r.lastCached, r.lastSkipped = evals, cached, skipped
}

// noteSearch folds one finished pyramid search into the router's
// atomic index accounting: examined is the number of candidates the index
// emitted, regions the pyramid regions entered. Histogram bucket i
// counts searches with examined ≤ 2^i; counters are flushed to the obs
// registry per attempt, but the neighborhood histogram is observed live —
// it is a distribution, not a sum. Safe from parallel scans.
func (r *router) noteSearch(examined, regions int) {
	r.idxSearches.Add(1)
	r.idxCandidates.Add(int64(examined))
	r.idxRegions.Add(int64(regions))
	b := 0
	for (1<<b) < examined && b < len(r.idxHist)-1 {
		b++
	}
	r.idxHist[b].Add(1)
	if r.inst != nil {
		r.inst.idxNeighb.Observe(float64(examined))
	}
}

// observePhase emits one construction-phase span.
func (r *router) observePhase(name string, start time.Time, dur time.Duration) {
	if r.tracer == nil {
		return
	}
	r.tracer.Span(obs.Span{Kind: obs.SpanPhase, Name: name, Start: start, Dur: dur, HeapDepth: -1})
}

// flushInstruments folds one finished (or failed) construction's Stats
// into the registry. Called once per route, so a failed route's work is
// accounted too.
func (r *router) flushInstruments(s Stats) {
	if r.inst == nil {
		return
	}
	r.inst.merges.Add(int64(s.Merges))
	r.inst.snakes.Add(int64(s.Snakes))
	r.inst.evals.Add(int64(s.PairEvals))
	r.inst.cached.Add(int64(s.PairEvalsCached))
	r.inst.skipped.Add(int64(s.PairEvalsSkipped))
	r.inst.memoStores.Add(int64(s.PairMemoStores))
	r.inst.idxSearches.Add(int64(s.IndexSearches))
	r.inst.idxCands.Add(int64(s.IndexCandidates))
	r.inst.idxRegions.Add(int64(s.IndexRegionsVisited))
	r.inst.idxRebuilds.Add(int64(s.IndexRebuilds))
	if s.IndexSearches > 0 {
		r.inst.idxNeighP50.Set(int64(s.NeighborhoodQuantile(0.5)))
		r.inst.idxNeighP90.Set(int64(s.NeighborhoodQuantile(0.9)))
	}
	r.inst.phaseInit.Set(s.PhaseInit.Nanoseconds())
	r.inst.phaseGrdy.Set(s.PhaseGreedy.Nanoseconds())
	r.inst.phaseEmbed.Set(s.PhaseEmbed.Nanoseconds())
}
