package serve

import "repro/internal/sieve"

// RouteResult is the outcome of one routing execution as the wire carries
// it: the canonical tree digest (bit-identity witness), the W(T)/W(S)
// evaluation and the construction counts. It is the result half of every
// RouteResponse, and the shard cache, its snapshot, the cache peek and the
// cluster's L1 all hold exactly this shape, so a result crosses tiers
// without conversion. The tree itself is deliberately not retained — a
// cached r5 keeps a few hundred bytes, not a 6000-node topology.
type RouteResult struct {
	// TreeDigest is topology.Tree.Digest() of the routed tree —
	// bit-identical across cache hits, coalesced joins and re-executions
	// of the same request.
	TreeDigest string      `json:"treeDigest"`
	Report     RouteReport `json:"report"`
	Stats      RouteStats  `json:"stats"`
	// RouteMs is the wall time of the execution that produced the result
	// (the original one, for cached responses).
	RouteMs float64 `json:"routeMs"`
}

// RouteReport is the power/area/timing evaluation on the wire.
type RouteReport struct {
	TotalSC         float64 `json:"totalSC"`
	ClockSC         float64 `json:"clockSC"` // W(T)
	CtrlSC          float64 `json:"ctrlSC"`  // W(S)
	UngatedSC       float64 `json:"ungatedSC"`
	ClockWirelength float64 `json:"clockWirelength"`
	StarWirelength  float64 `json:"starWirelength"`
	Gates           int     `json:"gates"`
	Buffers         int     `json:"buffers"`
	MaxDelayPs      float64 `json:"maxDelayPs"`
	SkewPs          float64 `json:"skewPs"`
}

// RouteStats is the construction accounting on the wire.
type RouteStats struct {
	Merges           int `json:"merges"`
	Snakes           int `json:"snakes"`
	PairEvals        int `json:"pairEvals"`
	PairEvalsSkipped int `json:"pairEvalsSkipped"`
	PairEvalsCached  int `json:"pairEvalsCached"`
}

// resultCache is the digest-keyed SIEVE cache of RouteResults
// (internal/sieve).
type resultCache = sieve.Cache[string, *RouteResult]

// cacheEntry is one cache entry, keyed by request digest, as the snapshot
// writes and replays it.
type cacheEntry = sieve.Entry[string, *RouteResult]
