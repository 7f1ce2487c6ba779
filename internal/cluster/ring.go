package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is the consistent-hash map from request digests to shard
// preference orders. Each shard contributes vnodes points on a 64-bit
// circle (FNV-1a over "shard<i>#<v>"); a key owns the first point at or
// clockwise after it, and its preference order is the sequence of
// *distinct* shards met walking clockwise — the same order every front
// tier derives independently, which is what makes failover targets
// agree across processes without coordination.
//
// The ring is immutable after construction: shard loss is handled by
// filtering the preference order by live health at lookup time, not by
// re-hashing, so a shard's keys fail over to their ring successors and
// hand back the moment it returns — no rebalance churn anywhere else.
type ring struct {
	points []ringPoint // sorted by hash, ties broken by shard index
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// newRing places vnodes points per shard. More vnodes smooths the load
// split (64 keeps the max/min key-share ratio under ~1.3 for small
// clusters) at a cost of n·vnodes sorted points, which for any plausible
// shard count is a few KB.
func newRing(shards, vnodes int) *ring {
	r := &ring{points: make([]ringPoint, 0, shards*vnodes), shards: shards}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "shard%d#%d", s, v)
			r.points = append(r.points, ringPoint{hash: h.Sum64(), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// owners returns the preference order for key: up to want distinct shards
// in clockwise ring order starting at the key's successor point. want is
// clamped to the shard count; the first entry is the key's primary owner.
func (r *ring) owners(key uint64, want int) []int {
	if want > r.shards {
		want = r.shards
	}
	if want <= 0 || len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	out := make([]int, 0, want)
	seen := make([]bool, r.shards)
	for i := 0; i < len(r.points) && len(out) < want; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}

// ringKey maps a canonical request digest (lowercase hex SHA-256) onto the
// ring's 64-bit circle by taking its leading 16 hex digits — the digest is
// already uniform, so no re-hashing is needed. Malformed digests cannot
// reach this point (Resolve computed the digest), but a zero fallback
// keeps the function total.
func ringKey(digest string) uint64 {
	if len(digest) < 16 {
		return 0
	}
	v, err := strconv.ParseUint(digest[:16], 16, 64)
	if err != nil {
		return 0
	}
	return v
}
