package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same metrics with the same units, directions and bounds;
// TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the share of the base median a head median may lose
}

// endToEnd are the metrics a user of the router or the service sees. Every
// workload reports every one; README.md gives each workload's meaning of
// an "operation" and how each bound was set from calibration runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"p90_ms", "ms", "lower", 0.25},
	{"mean_ms", "ms", "lower", 0.25},
}

// perLayer are the traced run's per-layer metrics. Self-time shares are
// percentages of traced wall time, so a layer a workload never enters
// reads 0 there; the core phase times are per routed instance and exist on
// every workload.
var perLayer = []metricDef{
	{"bench.generate_pct", "%", "lower", 0},
	{"activity.profile_pct", "%", "lower", 0},
	{"core.route_pct", "%", "lower", 0},
	{"core.init_pct", "%", "lower", 0},
	{"core.greedy_pct", "%", "lower", 0},
	{"core.embed_pct", "%", "lower", 0},
	{"power.evaluate_pct", "%", "lower", 0},
	{"verify.check_pct", "%", "lower", 0},
	{"topology.digest_pct", "%", "lower", 0},
	{"serve.queue_pct", "%", "lower", 0},
	{"serve.route_pct", "%", "lower", 0},
	{"client.request_pct", "%", "lower", 0},
	{"trace.coverage_pct", "%", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"core.init_ms", "ms", "lower", 0},
	{"core.greedy_ms", "ms", "lower", 0},
	{"core.embed_ms", "ms", "lower", 0},
	{"core.pair_evals", "count", "lower", 0},
	{"core.pair_skipped", "count", "lower", 0},
	{"core.memo_hit_rate", "ratio", "higher", 0},
	{"core.index_searches", "count", "lower", 0},
	{"core.cands_per_search", "count", "lower", 0},
	{"core.regions_visited", "count", "lower", 0},
	{"core.index_rebuilds", "count", "lower", 0},
	{"core.exhaustive_share", "ratio", "lower", 0},
	{"core.scaling_exponent", "1", "lower", 0},
	{"core.scaling_exponent_lo", "1", "lower", 0},
	{"core.scaling_exponent_hi", "1", "lower", 0},
	{"runtime.alloc_mb", "MB", "lower", 0},
	{"runtime.allocs", "count", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.shed", "count", "lower", 0},
	{"cluster.l1_hit_ratio", "ratio", "higher", 0},
	{"cluster.l2_hit_ratio", "ratio", "higher", 0},
	{"cluster.forward_ratio", "ratio", "lower", 0},
	{"cluster.peer_hits", "count", "higher", 0},
	{"cluster.failovers", "count", "lower", 0},
	{"perf.late_sends", "count", "lower", 0},
}
