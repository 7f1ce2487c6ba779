package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestValidateRejectsContradictoryFlags: every malformed or contradictory
// command line must be refused with a usageError before any routing starts.
func TestValidateRejectsContradictoryFlags(t *testing.T) {
	ok := runCfg{benchName: "r1", mode: "gated-red", controllers: 1}
	cases := []struct {
		name    string
		mutate  func(*runCfg)
		wantErr string
	}{
		{"neither bench nor in", func(c *runCfg) { c.benchName = "" }, "need -bench, -in or -sinks"},
		{"both bench and in", func(c *runCfg) { c.inFile = "x.bench" }, "mutually exclusive"},
		{"sinks with bench", func(c *runCfg) { c.sinks = 64 }, "mutually exclusive"},
		{"negative sinks", func(c *runCfg) { c.benchName = ""; c.sinks = -3 }, "must be positive"},
		{"unknown placement", func(c *runCfg) {
			c.benchName = ""
			c.sinks = 64
			c.placement = "spiral"
		}, "unknown placement"},
		{"unknown mode", func(c *runCfg) { c.mode = "turbo" }, "unknown mode"},
		{"controllers zero", func(c *runCfg) { c.controllers = 0 }, "power of two"},
		{"controllers not power of two", func(c *runCfg) { c.controllers = 3 }, "power of two"},
		{"negative timeout", func(c *runCfg) { c.timeout = -time.Second }, "negative"},
		{"negative workers", func(c *runCfg) { c.workers = -1 }, "negative"},
		{"negative domains", func(c *runCfg) { c.domains = -2 }, "negative"},
		{"bad pprof addr", func(c *runCfg) { c.pprofAddr = "no-port" }, "host:port"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ok
			tc.mutate(&cfg)
			err := run(io.Discard, cfg)
			if err == nil {
				t.Fatal("contradictory flags accepted")
			}
			var ue *usageError
			if !errors.As(err, &ue) {
				t.Fatalf("error %v is not a usageError", err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	if err := validate(ok); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestRunRejectsUnwritableOutputs: an output destination that cannot be
// created is a usage error (exit 2) carrying the underlying cause in its
// chain, surfaced before any routing work starts.
func TestRunRejectsUnwritableOutputs(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir", "out.file")
	for _, tc := range []struct {
		name   string
		mutate func(*runCfg)
	}{
		{"trace", func(c *runCfg) { c.traceOut = missing }},
		{"manifest", func(c *runCfg) { c.manifestOut = missing }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// r5 would take seconds to route; the failure must come back
			// immediately, proving the file is created before routing.
			cfg := runCfg{benchName: "r5", mode: "gated-red", controllers: 1}
			tc.mutate(&cfg)
			start := time.Now()
			err := run(io.Discard, cfg)
			if err == nil {
				t.Fatal("unwritable output accepted")
			}
			var ue *usageError
			if !errors.As(err, &ue) {
				t.Fatalf("error %v is not a usageError", err)
			}
			if !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("error chain %v does not preserve fs.ErrNotExist", err)
			}
			var pe *fs.PathError
			if !errors.As(err, &pe) || pe.Path != missing {
				t.Errorf("error chain %v does not carry the *fs.PathError for %q", err, missing)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("failure took %v — routing ran before the output check", d)
			}
		})
	}
}

// TestRunObservabilityOutputs routes r1 once with every observability sink
// armed and checks the artifacts: the trace file is valid JSONL covering
// every merge, the metrics dump is parseable Prometheus text, and the
// manifest is well-formed JSON carrying the result digest.
func TestRunObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.jsonl")
	manifestPath := filepath.Join(dir, "run.json")
	var out bytes.Buffer
	cfg := runCfg{
		benchName: "r1", mode: "gated-red", controllers: 1,
		stats: true, traceOut: tracePath, metricsDump: true, manifestOut: manifestPath,
	}
	if err := run(&out, cfg); err != nil {
		t.Fatal(err)
	}

	// Trace: one JSON object per line, with merge and phase spans.
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var merges, phases int
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("trace line %q is not JSON: %v", sc.Text(), err)
		}
		switch m["kind"] {
		case "merge":
			merges++
		case "phase":
			phases++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if merges == 0 || phases != 3 {
		t.Errorf("trace has %d merge / %d phase spans, want >0 / 3", merges, phases)
	}

	// Metrics dump: Prometheus text exposition of the run's own registry,
	// which holds the core instruments and no last-route phase gauges.
	dump := out.String()
	for _, metric := range []string{core.MetricMerges, core.MetricMergeCost} {
		if !strings.Contains(dump, "# TYPE "+metric+" ") {
			t.Errorf("metrics dump missing %s", metric)
		}
	}
	if strings.Contains(dump, "# TYPE core_phase_") {
		t.Error("metrics dump carries a core_phase_ family")
	}
	for _, line := range strings.Split(dump, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.ContainsAny(line, "{}") {
			if !strings.Contains(line, "_bucket{le=") {
				t.Errorf("unexpected labeled sample %q", line)
			}
			continue
		}
		if fields := strings.Fields(line); len(fields) == 2 {
			continue
		} else if strings.Contains(line, "_total") || strings.Contains(line, "_sum") ||
			strings.Contains(line, "_count") {
			t.Errorf("unparseable sample line %q", line)
		}
	}

	// Manifest: valid JSON with the digest and phase durations.
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest is not JSON: %v", err)
	}
	if m.Tool != "gcr" || m.Bench != "r1" || m.Seed == 0 || m.Sinks != 267 {
		t.Errorf("manifest identity wrong: %+v", m)
	}
	if len(m.ResultDigest) != 64 {
		t.Errorf("manifest digest %q is not a sha256 hex string", m.ResultDigest)
	}
	for _, phase := range []string{"init", "greedy", "embed", "total"} {
		if m.DurationsNs[phase] <= 0 {
			t.Errorf("manifest duration %q missing: %v", phase, m.DurationsNs)
		}
	}
	if m.Options["mode"] != "gated-red" {
		t.Errorf("manifest options wrong: %v", m.Options)
	}
	if m.Result["merges"] == nil || m.Result["total_sc_ff"] == nil {
		t.Errorf("manifest result summary incomplete: %v", m.Result)
	}
}

// TestRunSyntheticInstance drives the -sinks/-placement synthesis path for
// every placement: the run must route to completion, the manifest must
// carry the synthetic bench label and sink count, and an identical seed
// must reproduce the identical result digest. A gated-red route searches
// the spatial index, so -stats must print its search counters.
func TestRunSyntheticInstance(t *testing.T) {
	const n = 256
	for _, placement := range []string{"uniform", "clustered", "hotspot", "ring"} {
		t.Run(placement, func(t *testing.T) {
			dir := t.TempDir()
			digest := func(name string) string {
				p := filepath.Join(dir, name)
				var out bytes.Buffer
				cfg := runCfg{
					sinks: n, placement: placement, seed: 7,
					mode: "gated-red", controllers: 1,
					stats: true, manifestOut: p,
				}
				if err := run(&out, cfg); err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(out.String(), "index searches") {
					t.Errorf("-stats output for %d sinks lacks the index counters:\n%s", n, out.String())
				}
				raw, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				var m obs.Manifest
				if err := json.Unmarshal(raw, &m); err != nil {
					t.Fatal(err)
				}
				want := "synth-" + placement + "-256"
				if m.Bench != want || m.Sinks != n || m.Seed != 7 {
					t.Errorf("manifest identity = bench %q sinks %d seed %d, want %q %d 7",
						m.Bench, m.Sinks, m.Seed, want, n)
				}
				return m.ResultDigest
			}
			if d1, d2 := digest("a.json"), digest("b.json"); d1 != d2 {
				t.Errorf("same seed produced different digests: %s vs %s", d1, d2)
			}
		})
	}
}

// TestRunDeterministicDigest: two identical runs must produce identical
// result digests in their manifests — the manifest's cross-machine
// comparison contract.
func TestRunDeterministicDigest(t *testing.T) {
	dir := t.TempDir()
	digest := func(name string) string {
		p := filepath.Join(dir, name)
		cfg := runCfg{benchName: "r1", mode: "gated-red", controllers: 1, manifestOut: p}
		if err := run(io.Discard, cfg); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var m obs.Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		return m.ResultDigest
	}
	if d1, d2 := digest("a.json"), digest("b.json"); d1 != d2 {
		t.Errorf("identical runs produced different digests: %s vs %s", d1, d2)
	}
}
