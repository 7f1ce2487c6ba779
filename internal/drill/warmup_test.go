package drill

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestClusterWarmRestartPeerFetch is the cross-restart warmup story over
// real loopback sockets: a shard with a populated snapshot dies and
// restarts with a stretched warmup; while /readyz says "warming", its
// keys are answered by peer fetch from the shard that covered during the
// outage; once /readyz says "ready", the peer-fetch path stops and the
// restarted shard's own snapshot-restored cache serves L2 hits.
func TestClusterWarmRestartPeerFetch(t *testing.T) {
	if testing.Short() {
		t.Skip("restart drill with real sockets: skipped in -short")
	}
	dir := t.TempDir()
	procs := make([]*localShard, 2)
	for i := range procs {
		procs[i] = &localShard{cfg: serve.Config{
			CacheSize:        128,
			SnapshotPath:     filepath.Join(dir, "shard.snap."+string(rune('a'+i))),
			SnapshotInterval: -1, // only the on-drain save: the restart warms from it
		}}
		if err := procs[i].start(0); err != nil {
			t.Fatal(err)
		}
		defer procs[i].stop(true)
	}
	reg := obs.NewRegistry()
	counter := func(name string) int64 { return reg.Snapshot()[name].Value }
	rt, err := cluster.New(cluster.Config{
		Shards:         []string{procs[0].url(), procs[1].url()},
		L1Size:         -1, // every lookup must consult the shards
		ProbeInterval:  -1, // the test drives ProbeNow for determinism
		ForwardTimeout: 30 * time.Second,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := waitAllReady(rt, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	bodies := distinctBodies(16, 4200)
	// postAll posts every body once and tallies the answers by
	// X-Cluster-Source and by X-Cluster-Shard.
	postAll := func(phase string) (sources, shards map[string]int) {
		t.Helper()
		sources, shards = map[string]int{}, map[string]int{}
		for _, b := range bodies {
			req := httptest.NewRequest(http.MethodPost, "/v1/route", strings.NewReader(string(b)))
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: request answered %d: %s", phase, rec.Code, rec.Body.String())
			}
			sources[rec.Header().Get("X-Cluster-Source")]++
			shards[rec.Header().Get("X-Cluster-Shard")]++
		}
		return sources, shards
	}

	// Warm every owner's cache. On a healthy cluster with L1 off each
	// answer comes from its owner, so the pool must hold keys owned by the
	// shard we restart, or the drill drills nothing. Placement is
	// deterministic, so this is a one-time sanity gate, not a flake source.
	if _, owners := postAll("healthy"); owners[procs[1].addr] < 3 {
		t.Fatalf("only %d/16 bodies owned by shard B; widen the pool", owners[procs[1].addr])
	}
	procs[1].stop(true) // drain: writes B's snapshot
	rt.ProbeNow()       // B observed down
	postAll("outage")   // B's keys recomputed on A — A now holds them

	// Restart B with a stretched warmup so the warming window is wide
	// enough to post through deterministically.
	if err := procs[1].start(800 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rt.ProbeNow()
	if st := rt.ShardStates()[1].State; st != "warming" {
		t.Fatalf("restarted shard state %q, want warming", st)
	}

	peerBefore := counter("cluster_peer_hits_total")
	warming, _ := postAll("warming")
	peerDuringWarmup := counter("cluster_peer_hits_total") - peerBefore
	if peerDuringWarmup == 0 {
		t.Fatalf("no peer fetches while the owner warms; sources: %v", warming)
	}
	if warming["peer"] == 0 {
		t.Fatalf("no response marked X-Cluster-Source: peer; sources: %v", warming)
	}

	// Wait out the warmup: /readyz flips to ready once the snapshot loads.
	if err := waitAllReady(rt, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	peerBefore = counter("cluster_peer_hits_total")
	l2Before := counter("cluster_l2_hits_total")
	ready, _ := postAll("ready")
	if d := counter("cluster_peer_hits_total") - peerBefore; d != 0 {
		t.Fatalf("%d peer fetches after the owner reported ready; sources: %v", d, ready)
	}
	if d := counter("cluster_l2_hits_total") - l2Before; d == 0 {
		t.Fatalf("no L2 hits from the snapshot-restored cache; sources: %v", ready)
	}
}

// TestClusterReadyzDegradedDuringRestart: the aggregated /readyz reports
// "degraded" (still 200) while one shard warms, and "ready" only after
// every shard is warm — the signal a balancer or the drill waits on.
func TestClusterReadyzDegradedDuringRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket restart: skipped in -short")
	}
	dir := t.TempDir()
	sh := &localShard{cfg: serve.Config{
		CacheSize:    32,
		SnapshotPath: filepath.Join(dir, "s.snap"),
	}}
	if err := sh.start(0); err != nil {
		t.Fatal(err)
	}
	defer sh.stop(true)
	rt, err := cluster.New(cluster.Config{Shards: []string{sh.url()}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := waitAllReady(rt, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	sh.stop(true)
	if err := sh.start(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rt.ProbeNow()
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	var body map[string]any
	json.Unmarshal(rec.Body.Bytes(), &body)
	if rec.Code != http.StatusOK || body["status"] != "degraded" {
		t.Fatalf("warming cluster /readyz: %d %v, want 200 degraded", rec.Code, body)
	}
	if err := waitAllReady(rt, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}
