package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	gatedclock "repro"
	"repro/internal/core"
	"repro/internal/power"
)

// hexRoute is a fake route whose TreeDigest has the real pipeline's shape
// (64 lowercase hex), so its results survive the snapshot loader's format
// verification. Deterministic in the request digest, like the real thing.
func hexRoute(_ context.Context, rr *Resolved, _ gatedclock.Options) (*RouteResult, error) {
	sum := sha256.Sum256([]byte("tree-of-" + rr.Digest()))
	return &RouteResult{TreeDigest: hex.EncodeToString(sum[:]), RouteMs: 0.25}, nil
}

// hexDigest builds a digest-shaped string from a label.
func hexDigest(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

// snapEntries builds n well-formed cache entries, coldest first.
func snapEntries(n int) []cacheEntry {
	out := make([]cacheEntry, n)
	for i := range out {
		res := &RouteResult{TreeDigest: hexDigest("tree-" + string(rune('a'+i))), RouteMs: float64(i) + 0.5}
		res.Report.TotalSC = 10.0 * float64(i+1)
		out[i] = cacheEntry{Key: hexDigest("req-" + string(rune('a'+i))), Value: res}
	}
	return out
}

// waitReady polls until the server reports ready (snapshot load finished).
func waitReady(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Readiness() != "ready" {
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready (state %q)", s.Readiness())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSnapshotRoundTrip: encode → decode → encode is bit-identical, entry
// order (coldest first) is preserved, and nothing is rejected.
func TestSnapshotRoundTrip(t *testing.T) {
	entries := snapEntries(5)
	enc, err := encodeSnapshot(entries)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, rejected, err := decodeSnapshot(enc)
	if err != nil || rejected != 0 {
		t.Fatalf("decode: err=%v rejected=%d", err, rejected)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range got {
		if got[i].Key != entries[i].Key {
			t.Fatalf("entry %d: digest %s, want %s (order not preserved)", i, got[i].Key, entries[i].Key)
		}
		if *got[i].Value != *entries[i].Value {
			t.Fatalf("entry %d: result drifted across the round trip", i)
		}
	}
	enc2, err := encodeSnapshot(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("re-encode is not bit-identical to the original encoding")
	}
}

// TestSnapshotRejectsBadHeader: garbage, wrong magic, future versions and
// version-1 and version-2 files reject the whole file with an error (never
// a panic, never partial trust).
func TestSnapshotRejectsBadHeader(t *testing.T) {
	valid, _ := encodeSnapshot(snapEntries(1))
	lines := bytes.SplitN(valid, []byte{'\n'}, 2)
	// Version-2 and version-1 entries, as written while a cached result
	// embedded power.Report and core.Stats (v1's Stats also carried
	// Downgraded and DowngradeReason), each checksummed over its own
	// encoding.
	e := snapEntries(1)[0]
	v2JSON, _ := json.Marshal(struct {
		TreeDigest string
		Report     power.Report
		Stats      core.Stats
		RouteMs    float64
	}{TreeDigest: e.Value.TreeDigest, RouteMs: e.Value.RouteMs})
	v1JSON := bytes.Replace(v2JSON, []byte(`"PhaseEmbed":0`),
		[]byte(`"PhaseEmbed":0,"Downgraded":false,"DowngradeReason":""`), 1)
	if bytes.Equal(v1JSON, v2JSON) {
		t.Fatal("test setup: no PhaseEmbed field in the encoded Stats")
	}
	oldFile := func(version int, resJSON []byte) []byte {
		return []byte(fmt.Sprintf(`{"magic":%q,"version":%d,"entries":1}`+"\n"+`{"digest":%q,"checksum":%q,"result":%s}`+"\n",
			snapshotMagic, version, e.Key, entryChecksum(e.Key, resJSON), resJSON))
	}
	for name, data := range map[string][]byte{
		"empty":         nil,
		"garbage":       []byte("not a snapshot\n"),
		"wrong magic":   append([]byte(`{"magic":"other","version":1,"entries":1}`+"\n"), lines[1]...),
		"wrong version": append([]byte(`{"magic":"`+snapshotMagic+`","version":99,"entries":1}`+"\n"), lines[1]...),
		"version 1":     oldFile(1, v1JSON),
		"version 2":     oldFile(2, v2JSON),
	} {
		if _, _, err := decodeSnapshot(data); err == nil {
			t.Errorf("%s: decode accepted the file", name)
		}
	}
}

// TestSnapshotRejectsCorruptEntries: a tampered entry is dropped alone —
// its siblings load — and malformed digests or truncation are counted as
// loss, not trusted.
func TestSnapshotRejectsCorruptEntries(t *testing.T) {
	entries := snapEntries(3)
	enc, _ := encodeSnapshot(entries)
	lines := strings.Split(strings.TrimRight(string(enc), "\n"), "\n")

	// Tamper with entry 1's result in a way that still parses: the
	// checksum re-verification against the re-marshaled result must catch
	// the semantic edit.
	tampered := strings.Replace(lines[2], `"routeMs":1.5`, `"routeMs":99`, 1)
	if tampered == lines[2] {
		t.Fatal("test setup: tamper target not found in encoded entry")
	}
	got, rejected, err := decodeSnapshot([]byte(strings.Join([]string{lines[0], lines[1], tampered, lines[3]}, "\n") + "\n"))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rejected != 1 || len(got) != 2 {
		t.Fatalf("got %d entries / %d rejected, want 2 / 1", len(got), rejected)
	}
	if got[0].Key != entries[0].Key || got[1].Key != entries[2].Key {
		t.Fatal("wrong entries survived the corruption")
	}

	// Non-hex digest: rejected even with a valid checksum.
	bad := snapEntries(1)
	bad[0].Key = "not-a-digest"
	badEnc, _ := encodeSnapshot(bad)
	if got, rejected, err := decodeSnapshot(badEnc); err != nil || rejected != 1 || len(got) != 0 {
		t.Fatalf("malformed digest: entries=%d rejected=%d err=%v, want 0/1/nil", len(got), rejected, err)
	}

	// Truncation: header promises 3, file carries 1 → 2 counted lost.
	truncated := strings.Join(lines[:2], "\n") + "\n"
	if got, rejected, err := decodeSnapshot([]byte(truncated)); err != nil || len(got) != 1 || rejected != 2 {
		t.Fatalf("truncated: entries=%d rejected=%d err=%v, want 1/2/nil", len(got), rejected, err)
	}
}

// TestWarmRestartServesSnapshot is the crash/recover cycle end to end: a
// server routes traffic, drains (writing its on-drain snapshot), and a
// fresh server on the same path answers the same requests from the
// restored cache with bit-identical tree digests.
func TestWarmRestartServesSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	bodies := []string{distinctBody(1), distinctBody(2), distinctBody(3)}

	a := New(Config{Workers: 2, SnapshotPath: path, SnapshotInterval: -1, route: hexRoute})
	waitReady(t, a)
	want := map[string]string{}
	for _, b := range bodies {
		resp := decodeResp(t, post(a.Handler(), "/v1/route", b))
		if resp.Cached {
			t.Fatalf("first pass unexpectedly cached: %s", b)
		}
		want[b] = resp.TreeDigest
	}
	shutdownOrFail(t, a)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("on-drain snapshot missing: %v", err)
	}

	b := New(Config{Workers: 2, SnapshotPath: path, SnapshotInterval: -1, route: hexRoute})
	defer shutdownOrFail(t, b)
	waitReady(t, b)
	if got := b.Metrics().Snapshot()["serve_snapshot_loaded_total"].Value; got != int64(len(bodies)) {
		t.Fatalf("serve_snapshot_loaded_total %d, want %d", got, len(bodies))
	}
	if rec := get(b.Handler(), "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after warm load: %d, body %s", rec.Code, rec.Body.String())
	}
	for _, body := range bodies {
		resp := decodeResp(t, post(b.Handler(), "/v1/route", body))
		if !resp.Cached {
			t.Errorf("post-restart request not served from the restored cache: %s", body)
		}
		if resp.TreeDigest != want[body] {
			t.Errorf("post-restart tree digest %s, want the pre-restart %s", resp.TreeDigest, want[body])
		}
	}
}

// TestReadyzStates: liveness and readiness are distinct — /readyz answers
// 503 while warming and while draining, 200 only in between, while
// /healthz stays 200 for the whole life of the process.
func TestReadyzStates(t *testing.T) {
	// No snapshot configured → ready immediately.
	s := New(Config{Workers: 1, route: fakeRoute})
	if rec := get(s.Handler(), "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz with no snapshot: %d, want 200", rec.Code)
	}

	// Warming: the load hasn't finished yet.
	s.warmed.Store(false)
	rec := get(s.Handler(), "/readyz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "warming") {
		t.Fatalf("/readyz while warming: %d %s, want 503 warming", rec.Code, rec.Body.String())
	}
	if rec := get(s.Handler(), "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz while warming: %d, want 200 (liveness is not readiness)", rec.Code)
	}
	s.warmed.Store(true)

	// Draining: shutting down flips readiness before the listener dies.
	shutdownOrFail(t, s)
	rec = get(s.Handler(), "/readyz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("/readyz while draining: %d %s, want 503 draining", rec.Code, rec.Body.String())
	}
}

// TestPeriodicSnapshot: with an interval configured, the snapshot appears
// on disk without any shutdown.
func TestPeriodicSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	s := New(Config{Workers: 1, SnapshotPath: path, SnapshotInterval: 5 * time.Millisecond, route: hexRoute})
	defer shutdownOrFail(t, s)
	waitReady(t, s)
	decodeResp(t, post(s.Handler(), "/v1/route", testBody))

	deadline := time.Now().Add(5 * time.Second)
	for {
		if data, err := os.ReadFile(path); err == nil {
			if entries, rejected, derr := decodeSnapshot(data); derr == nil && rejected == 0 && len(entries) == 1 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic snapshot never materialized with the cached entry")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// FuzzCacheSnapshot pins the loader's two contracts: arbitrary bytes never
// panic it, and whatever it accepts re-encodes to a stable fixed point —
// encode(decode(encode(decode(x)))) is bit-identical to the inner
// encoding, which is the property the warm-restart path relies on.
func FuzzCacheSnapshot(f *testing.F) {
	valid, _ := encodeSnapshot(snapEntries(3))
	f.Add(valid)
	f.Add([]byte(fmt.Sprintf(`{"magic":"gcr-cache-snapshot","version":%d,"entries":0}`+"\n", snapshotVersion)))
	f.Add([]byte("garbage\n\x00\xff"))
	f.Add(bytes.Replace(valid, []byte(`"routeMs"`), []byte(`"routems"`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, _, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		enc, err := encodeSnapshot(entries)
		if err != nil {
			t.Fatalf("accepted entries failed to encode: %v", err)
		}
		entries2, rejected2, err := decodeSnapshot(enc)
		if err != nil || rejected2 != 0 {
			t.Fatalf("re-decode of own encoding: err=%v rejected=%d", err, rejected2)
		}
		enc2, err := encodeSnapshot(entries2)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("encode/decode did not reach a bit-identical fixed point")
		}
	})
}
