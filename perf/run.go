package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
)

// config is one workload run's parameters.
type config struct {
	Seed    uint64
	Seconds float64
	Short   bool // tiny inputs: the tests' smoke run
	Trace   bool
	// SetupOnly stops the workload once its set-up has been timed.
	SetupOnly bool
}

// result is what one workload run reports; the child process prints it as
// JSON for the parent process.
type result struct {
	Workload  string             `json:"workload"`
	Problems  []string           `json:"problems,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"endToEnd"`
	PerLayer  map[string]float64 `json:"perLayer,omitempty"`
	SelfMs    map[string]float64 `json:"selfMs,omitempty"` // traced: self time by layer
	WallMs    float64            `json:"wallMs,omitempty"` // traced: the wall the self times divide
	Details   map[string]float64 `json:"details"`
	Setups    []float64          `json:"setups"` // every set-up's time, ms
	// Trees digests every routed tree's digest in a fixed order (route
	// workloads), so a traced and an untraced run can be compared.
	Trees string `json:"trees,omitempty"`

	spans []span
}

// ok reports whether every check passed; a run that did not happen passes.
func (r *result) ok() bool { return r == nil || len(r.Problems) == 0 }

// run accumulates one workload run.
type run struct {
	cfg config
	tr  *recorder // nil when untraced
	// enclosing maps each span name the program emits without a parent to
	// the layer that encloses it in this workload (see selfTimes).
	enclosing map[string]string

	setups []time.Duration
	ops    []time.Duration // latency of every measured operation
	// slot, when set, holds for each operation the second of the measured
	// section it started in; p90_ms and mean_ms are then taken per second
	// and averaged over the seconds but the slowest quarter (see slotStats).
	slot []int
	res  result

	// stats sums the core counters over the run's routes; fastRoutes and
	// exhaustive count the routes through the fast greedy and those of
	// them that never searched the spatial index.
	stats                          core.Stats
	routes, fastRoutes, exhaustive int

	// layer holds per-layer values a workload measures directly.
	layer map[string]float64

	mem0, mem1 runtime.MemStats
}

func newRun(name string, cfg config) *run {
	r := &run{cfg: cfg, layer: map[string]float64{}}
	r.res.Workload = name
	r.res.Details = map[string]float64{}
	if cfg.Trace {
		r.tr = newRecorder()
	}
	return r
}

func (r *run) problem(format string, args ...any) {
	const keep = 20 // a broken build can fail thousands of checks
	if len(r.res.Problems) < keep {
		r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
	}
}

// pinned reports whether the pinned digests apply: only the default seed
// has them.
func (r *run) pinned() bool { return r.cfg.Seed == 1 }

// measure brackets the measured section for the runtime counters.
func (r *run) beginMeasure() {
	runtime.GC()
	runtime.ReadMemStats(&r.mem0)
}

func (r *run) endMeasure() { runtime.ReadMemStats(&r.mem1) }

func (r *run) addStats(s core.Stats, fast bool) {
	r.routes++
	if fast {
		r.fastRoutes++
		if s.IndexSearches == 0 {
			r.exhaustive++
		}
	}
	r.stats.PairEvals += s.PairEvals
	r.stats.PairEvalsSkipped += s.PairEvalsSkipped
	r.stats.PairEvalsCached += s.PairEvalsCached
	r.stats.PairMemoStores += s.PairMemoStores
	r.stats.IndexSearches += s.IndexSearches
	r.stats.IndexCandidates += s.IndexCandidates
	r.stats.IndexRegionsVisited += s.IndexRegionsVisited
	r.stats.IndexRebuilds += s.IndexRebuilds
}

// finish computes the run's metrics.
func (r *run) finish() result {
	res := r.res
	ops := millis(r.ops)
	res.Setups = millis(r.setups)
	p90, avg := quantile(ops, 0.9), mean(ops)
	if len(r.slot) == len(ops) && len(ops) > 0 {
		p90, avg = slotStats(ops, r.slot)
	}
	res.EndToEnd = map[string]float64{
		"setup_s": median(res.Setups) / 1000,
		"p90_ms":  p90,
		"mean_ms": avg,
	}
	// The median, the highest percentile with ten samples above it and the
	// geometric mean are reported too, but not gated: on a shared host they
	// do not repeat from run to run within any bound worth having.
	res.Details["p50_ms"] = median(ops)
	res.Details["geomean_ms"] = geomean(ops)
	res.Details["tail_ms"] = quantile(ops, tailQ(len(ops)))
	res.Details["tail_q"] = tailQ(len(ops))
	res.Details["ops"] = float64(len(ops))
	res.Details["setup_reps"] = float64(len(r.setups))
	if r.tr == nil {
		return res
	}

	pl := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		pl[m.Name] = 0
	}
	spans := r.tr.snapshot()
	res.spans = spans
	self := selfTimes(spans, r.enclosing)
	wall := rootTime(spans, r.enclosing)
	res.WallMs = float64(wall) / 1e6
	res.SelfMs = make(map[string]float64, len(self))
	var own int64
	for name, ns := range self {
		res.SelfMs[name] = float64(ns) / 1e6
		if strings.HasPrefix(name, "perf.") {
			own += ns
		}
	}
	if wall > 0 {
		for _, m := range perLayer {
			// <layer>_pct is that layer's share; trace.* are about the trace.
			if layer, ok := strings.CutSuffix(m.Name, "_pct"); ok && !strings.HasPrefix(layer, "trace.") {
				pl[m.Name] = 100 * float64(self[layer]) / float64(wall)
			}
		}
		pl["trace.coverage_pct"] = 100 * (1 - float64(own)/float64(wall))
	}
	var phaseNs = map[string]int64{}
	phases := 0
	for _, s := range spans {
		switch s.Name {
		case "core.init":
			phases++
			fallthrough
		case "core.greedy", "core.embed":
			phaseNs[s.Name] += s.dur()
		}
	}
	if phases > 0 {
		for _, p := range []string{"init", "greedy", "embed"} {
			pl["core."+p+"_ms"] = float64(phaseNs["core."+p]) / 1e6 / float64(phases)
		}
	}
	if n := float64(r.routes); n > 0 {
		s := r.stats
		pl["core.pair_evals"] = float64(s.PairEvals) / n
		pl["core.pair_skipped"] = float64(s.PairEvalsSkipped) / n
		pl["core.memo_hit_rate"] = s.CacheHitRate()
		pl["core.index_searches"] = float64(s.IndexSearches) / n
		pl["core.regions_visited"] = float64(s.IndexRegionsVisited) / n
		pl["core.index_rebuilds"] = float64(s.IndexRebuilds) / n
		if s.IndexSearches > 0 {
			pl["core.cands_per_search"] = float64(s.IndexCandidates) / float64(s.IndexSearches)
		}
	}
	if r.fastRoutes > 0 {
		pl["core.exhaustive_share"] = float64(r.exhaustive) / float64(r.fastRoutes)
	}
	if n := float64(r.res.Attempted); n > 0 {
		pl["runtime.alloc_mb"] = float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc) / (1 << 20) / n
		pl["runtime.allocs"] = float64(r.mem1.Mallocs-r.mem0.Mallocs) / n
	}
	pl["runtime.gc_cycles"] = float64(r.mem1.NumGC - r.mem0.NumGC)
	pl["runtime.gc_pause_ms"] = float64(r.mem1.PauseTotalNs-r.mem0.PauseTotalNs) / 1e6
	for k, v := range r.layer {
		pl[k] = v
	}
	res.Details["trace.merge_spans"] = float64(r.tr.merges.Load())
	res.PerLayer = pl
	return res
}
