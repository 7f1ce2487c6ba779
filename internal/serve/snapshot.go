package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Cache snapshot format: line-oriented JSON. The first line is a header
// pinning magic, version and entry count; each following line is one cache
// entry in eviction order (coldest first), carrying a SHA-256 checksum
// over its digest and canonical result encoding. The loader trusts
// nothing: a wrong magic or version rejects the file, a bad checksum, a
// malformed digest, or a malformed tree digest rejects that entry — a
// flipped bit in a snapshot degrades one cache entry, never the daemon.
// Writes go to a temp file in the same directory and are renamed into
// place, so a crash mid-write leaves the previous snapshot intact. The
// version changes whenever the entry encoding does (core.Stats included),
// so a stale file is refused whole at its header, not entry by entry.
const (
	snapshotMagic   = "gcr-cache-snapshot"
	snapshotVersion = 2
)

type snapHeader struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	Entries int    `json:"entries"`
}

type snapEntry struct {
	Digest   string      `json:"digest"`
	Checksum string      `json:"checksum"`
	Result   RouteResult `json:"result"`
}

// entryChecksum binds an entry's request digest to its canonical result
// encoding; recomputed at load from the re-marshaled result, so any
// mutation of either half is caught.
func entryChecksum(digest string, resultJSON []byte) string {
	h := sha256.New()
	h.Write([]byte(digest))
	h.Write([]byte{'\n'})
	h.Write(resultJSON)
	return hex.EncodeToString(h.Sum(nil))
}

// isHexDigest reports whether s looks like a lowercase hex SHA-256 — the
// shape of both request digests and topology.Tree digests.
func isHexDigest(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// encodeSnapshot serializes entries (coldest first). Entries whose result
// cannot be canonically encoded (non-finite floats smuggled in) are
// skipped rather than poisoning the file.
func encodeSnapshot(entries []cacheEntry) ([]byte, error) {
	lines := make([][]byte, 0, len(entries)+1)
	for _, e := range entries {
		if e.res == nil {
			continue
		}
		resJSON, err := json.Marshal(*e.res)
		if err != nil {
			continue
		}
		line, err := json.Marshal(snapEntry{
			Digest:   e.digest,
			Checksum: entryChecksum(e.digest, resJSON),
			Result:   *e.res,
		})
		if err != nil {
			continue
		}
		lines = append(lines, line)
	}
	hdr, err := json.Marshal(snapHeader{Magic: snapshotMagic, Version: snapshotVersion, Entries: len(lines)})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Write(hdr)
	buf.WriteByte('\n')
	for _, l := range lines {
		buf.Write(l)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// decodeSnapshot parses and verifies snapshot bytes. It returns the
// accepted entries (coldest first) and the count of rejected ones; a bad
// header rejects the whole file with an error. It never panics on
// arbitrary input (FuzzCacheSnapshot pins this), and a decode of an
// encoder-produced snapshot re-encodes bit-identically.
func decodeSnapshot(data []byte) (entries []cacheEntry, rejected int, err error) {
	lines := bytes.Split(data, []byte{'\n'})
	if len(lines) == 0 || len(bytes.TrimSpace(lines[0])) == 0 {
		return nil, 0, fmt.Errorf("snapshot: empty file")
	}
	var hdr snapHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return nil, 0, fmt.Errorf("snapshot: bad header: %w", err)
	}
	if hdr.Magic != snapshotMagic {
		return nil, 0, fmt.Errorf("snapshot: magic %q, want %q", hdr.Magic, snapshotMagic)
	}
	if hdr.Version != snapshotVersion {
		return nil, 0, fmt.Errorf("snapshot: version %d, want %d (stale snapshots are discarded, not migrated)",
			hdr.Version, snapshotVersion)
	}
	for _, line := range lines[1:] {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e snapEntry
		if err := json.Unmarshal(line, &e); err != nil {
			rejected++
			continue
		}
		if !isHexDigest(e.Digest) || !isHexDigest(e.Result.TreeDigest) {
			rejected++
			continue
		}
		// Re-verify the checksum against the *re-marshaled* result: the
		// entry is only trusted if its canonical re-encoding still hashes
		// to the recorded value, so semantic mutations (an edited field
		// that still parses) are rejected along with bit rot.
		resJSON, err := json.Marshal(e.Result)
		if err != nil || entryChecksum(e.Digest, resJSON) != e.Checksum {
			rejected++
			continue
		}
		res := e.Result
		entries = append(entries, cacheEntry{digest: e.Digest, res: &res})
	}
	// Truncation counts as loss too, but only the shortfall not already
	// accounted to a per-entry rejection.
	if missing := hdr.Entries - len(entries) - rejected; missing > 0 {
		rejected += missing
	}
	return entries, rejected, nil
}

// SaveSnapshot atomically writes the current cache to the configured
// snapshot path: temp file in the same directory, then rename. Safe to
// call at any time; the periodic saver and Shutdown's on-drain save use
// it too.
func (s *Server) SaveSnapshot() error {
	path := s.cfg.SnapshotPath
	if path == "" {
		return fmt.Errorf("serve: no snapshot path configured")
	}
	data, err := encodeSnapshot(entriesOldestFirst(s.cache))
	if err != nil {
		return fmt.Errorf("serve: encode snapshot: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("serve: write snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("serve: close snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("serve: publish snapshot: %w", err)
	}
	s.inst.snapSaves.Inc()
	return nil
}

// loadSnapshot warms the cache from the configured path. A missing file is
// a cold start, not an error; a corrupt header discards the file; corrupt
// entries are dropped individually. Both loss modes are visible on
// serve_snapshot_rejected_total.
func (s *Server) loadSnapshot() {
	data, err := os.ReadFile(s.cfg.SnapshotPath)
	if err != nil {
		return // cold start (not-exist, unreadable): serve with an empty cache
	}
	entries, rejected, err := decodeSnapshot(data)
	if err != nil {
		s.inst.snapRejects.Inc()
		return
	}
	for i := range entries {
		s.cache.Add(entries[i].digest, entries[i].res)
	}
	s.inst.snapLoaded.Add(int64(len(entries)))
	s.inst.snapRejects.Add(int64(rejected))
	s.inst.cacheEntries.Set(int64(s.cache.Len()))
}

// snapshotLoop rewrites the snapshot every SnapshotInterval until the
// server stops; Shutdown then writes the final on-drain snapshot itself.
func (s *Server) snapshotLoop() {
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.SaveSnapshot()
		case <-s.stop:
			return
		}
	}
}
