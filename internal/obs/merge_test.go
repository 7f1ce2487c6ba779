package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// shardRegistry builds a registry shaped like one gcrd shard's: the same
// instrument names across shards (they run the same code) with
// shard-specific values, plus an instrument only some shards have
// registered (lazily created ones, e.g. chaos counters on the one shard
// running with -chaos).
func shardRegistry(rng *rand.Rand, extra bool) *Registry {
	r := NewRegistry()
	reqs := r.Counter("serve_requests_total", "")
	reqs.Add(rng.Int63n(10_000))
	hits := r.Counter("serve_cache_hits_total", "")
	hits.Add(rng.Int63n(5_000))
	r.Gauge("serve_queue_depth", "").Set(rng.Int63n(64))
	h := r.Histogram("serve_route_ms", "", ExpBuckets(0.25, 2, 10))
	for i := 0; i < 200; i++ {
		h.Observe(rng.Float64() * 300)
	}
	if extra {
		r.Counter("serve_injected_errors_total", "").Add(rng.Int63n(40))
	}
	return r
}

// jsonRoundTrip pushes a snapshot through its wire encoding, the way the
// cluster front tier receives per-shard snapshots from GET /metrics.json.
func jsonRoundTrip(t *testing.T, s Snapshot) Snapshot {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var out Snapshot
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	return out
}

// TestSnapshotJSONRoundTripPreservesKind pins that a wire-decoded snapshot
// merges by typed kind, not as an opaque blob: without the restored Kind,
// Merge would treat every decoded instrument as a counter.
func TestSnapshotJSONRoundTripPreservesKind(t *testing.T) {
	r := shardRegistry(rand.New(rand.NewSource(1)), true)
	want := r.Snapshot()
	got := jsonRoundTrip(t, want)
	kinds := map[Kind]bool{}
	for name, s := range want {
		if got[name].Kind != s.Kind {
			t.Fatalf("%s: kind %v decoded as %v", name, s.Kind, got[name].Kind)
		}
		kinds[s.Kind] = true
	}
	if len(kinds) != 3 {
		t.Fatalf("the round trip covered %d of the 3 kinds", len(kinds))
	}
	var bad Snapshot
	if err := json.Unmarshal([]byte(`{"x":{"kind":"bogus"}}`), &bad); err == nil {
		t.Fatal("unknown kind must fail to decode")
	}
}

// TestSnapshotMergeOrderDeterminism is the cluster aggregation property:
// merging per-shard registry snapshots in any order yields byte-identical
// aggregated /metrics output. Counters and histogram buckets sum, gauges
// take the max — all commutative — and WriteProm sorts, so every
// permutation of shards must write the same exposition.
func TestSnapshotMergeOrderDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		nShards := 2 + rng.Intn(4)
		snaps := make([]Snapshot, nShards)
		for i := range snaps {
			snaps[i] = jsonRoundTrip(t, shardRegistry(rng, i%2 == 0).Snapshot())
		}

		merged := func(perm []int) []byte {
			ordered := make([]Snapshot, len(perm))
			for j, i := range perm {
				ordered[j] = snaps[i]
			}
			var buf bytes.Buffer
			if err := MergeAll(ordered...).WriteProm(&buf); err != nil {
				t.Fatalf("WriteProm: %v", err)
			}
			return buf.Bytes()
		}

		base := merged(identityPerm(nShards))
		for p := 0; p < 24; p++ {
			perm := rng.Perm(nShards)
			if got := merged(perm); !bytes.Equal(got, base) {
				t.Fatalf("trial %d: permutation %v diverges:\n%s\nvs base\n%s", trial, perm, got, base)
			}
		}

		// Merging must also not mutate its inputs (the front tier reuses a
		// shard's snapshot across aggregation requests): re-merge the base
		// order and compare again.
		if got := merged(identityPerm(nShards)); !bytes.Equal(got, base) {
			t.Fatalf("trial %d: re-merge diverges — Merge mutated an input snapshot", trial)
		}
	}
}

func identityPerm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
