package serve

import (
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sieve"
)

// RouteResult is the cacheable outcome of one routing execution: the
// canonical tree digest (bit-identity witness), the full power evaluation
// with its W(T)/W(S) split, and the construction Stats. The tree itself is
// deliberately not retained — a cached r5 keeps ~1 KB, not a 6000-node
// topology.
type RouteResult struct {
	TreeDigest string
	Report     power.Report
	Stats      core.Stats
	RouteMs    float64 // wall time of the original construction
}

// resultCache is the digest-keyed SIEVE cache of RouteResults
// (internal/sieve).
type resultCache = sieve.Cache[string, *RouteResult]

// cacheEntry is the snapshot-format view of one cache entry.
type cacheEntry struct {
	digest string
	res    *RouteResult
}

// entriesOldestFirst copies the cache in queue order, oldest → newest,
// the order a snapshot replays through Add so the restored cache rebuilds
// the original queue with every visited bit cleared.
func entriesOldestFirst(c *resultCache) []cacheEntry {
	raw := c.EntriesOldestFirst()
	out := make([]cacheEntry, len(raw))
	for i, e := range raw {
		out[i] = cacheEntry{digest: e.Key, res: e.Value}
	}
	return out
}
