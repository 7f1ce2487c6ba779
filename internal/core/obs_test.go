package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/topology"
)

// TestObsDisabledZeroAllocs: with no tracer and no registry attached — the
// default configuration — the per-merge observability hook must perform no
// allocations, keeping the hot path as cheap as before the layer existed.
func TestObsDisabledZeroAllocs(t *testing.T) {
	r := &router{} // nil tracer, nil instruments: observability disabled
	a := &topology.Node{ID: 0}
	b := &topology.Node{ID: 1}
	k := &topology.Node{ID: 2}
	allocs := testing.AllocsPerRun(1000, func() {
		if r.obsEnabled() {
			t.Fatal("disabled router reports observability enabled")
		}
		r.observeMerge(time.Time{}, a, b, k, 42.0, false, 17)
		r.observePhase("greedy", time.Time{}, 0)
	})
	if allocs != 0 {
		t.Errorf("disabled observability hook allocates %.1f times per merge, want 0", allocs)
	}
}

// TestTracedRouteBitIdentical: golden bit-identity with observability on.
// Tracing and metrics are read-only taps, so a traced + metered route must
// produce exactly the tree of a silent route on the paper's benchmarks
// (r1–r5; -short trims to r1–r2, like the rest of the golden suite), while
// the trace and the registry must agree with the returned Stats.
func TestTracedRouteBitIdentical(t *testing.T) {
	names := bench.StandardNames()
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			in := goldenInstance(t, name)
			opts := Options{Tech: tech.Default(), Method: MinSwitchedCap, Drivers: GatedTree}

			silentTree, silentStats, err := Route(in, opts)
			if err != nil {
				t.Fatal(err)
			}

			var trace bytes.Buffer
			tr := obs.NewJSONL(&trace)
			reg := obs.NewRegistry()
			traced := opts
			traced.Tracer = tr
			traced.Metrics = reg
			tracedTree, tracedStats, err := Route(in, traced)
			if err != nil {
				t.Fatal(err)
			}

			requireIdenticalTrees(t, name+"-traced", silentTree, tracedTree)
			if d1, d2 := silentTree.Digest(), tracedTree.Digest(); d1 != d2 {
				t.Errorf("digests diverge under tracing: %s vs %s", d1, d2)
			}
			if silentStats.PairEvals != tracedStats.PairEvals ||
				silentStats.Merges != tracedStats.Merges {
				t.Errorf("stats diverge under tracing: %+v vs %+v", silentStats, tracedStats)
			}

			// The trace must cover every merge and every phase, as valid JSONL.
			if err := tr.Err(); err != nil {
				t.Fatal(err)
			}
			wantMerges := len(in.SinkLocs) - 1
			if tr.MergeCount() != wantMerges {
				t.Errorf("trace has %d merge spans, want %d", tr.MergeCount(), wantMerges)
			}
			var merges, phases int
			var evals, cached, skipped int64
			sc := bufio.NewScanner(&trace)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				var m map[string]any
				if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
					t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
				}
				switch m["kind"] {
				case "merge":
					merges++
					evals += int64(m["evals"].(float64))
					cached += int64(m["cached"].(float64))
					skipped += int64(m["skipped"].(float64))
				case "phase":
					phases++
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if merges != wantMerges || phases != 3 {
				t.Errorf("trace lines: %d merges / %d phases, want %d / 3", merges, phases, wantMerges)
			}
			// The per-merge deltas sum to the totals minus the init scan
			// (emitted before the first merge span's baseline).
			if evals > int64(tracedStats.PairEvals) || cached > int64(tracedStats.PairEvalsCached) ||
				skipped > int64(tracedStats.PairEvalsSkipped) {
				t.Errorf("trace deltas exceed stats totals: %d/%d/%d vs %+v",
					evals, cached, skipped, tracedStats)
			}

			// The registry totals must agree exactly with Stats.
			snap := reg.Snapshot()
			checks := map[string]int64{
				MetricMerges:      int64(tracedStats.Merges),
				MetricSnakes:      int64(tracedStats.Snakes),
				MetricPairEvals:   int64(tracedStats.PairEvals),
				MetricPairCached:  int64(tracedStats.PairEvalsCached),
				MetricPairSkipped: int64(tracedStats.PairEvalsSkipped),
			}
			for metric, want := range checks {
				if got := snap[metric].Value; got != want {
					t.Errorf("%s = %d, want %d", metric, got, want)
				}
			}
			if got := snap[MetricMergeCost].Count; got != int64(wantMerges) {
				t.Errorf("merge-cost histogram has %d observations, want %d", got, wantMerges)
			}
			if snap[MetricHeapLenMax].Value <= 0 {
				t.Error("heap length gauge never recorded")
			}
		})
	}
}

// TestTracedRouteConcurrent exercises the traced route path under the race
// detector (`make race`): two routes run concurrently, sharing one metrics
// registry and one tracer, with parallel candidate scans inside each.
func TestTracedRouteConcurrent(t *testing.T) {
	in := makeInstance(t, 96, 23)
	reg := obs.NewRegistry()
	tr := obs.NewJSONL(discardWriter{})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	trees := make([]*topology.Tree, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := Options{Tech: tech.Default(), Method: MinSwitchedCap, Drivers: GatedTree,
				Workers: 4, Tracer: tr, Metrics: reg}
			trees[i], _, errs[i] = Route(in, opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent traced route %d: %v", i, err)
		}
	}
	requireIdenticalTrees(t, "concurrent", trees[0], trees[1])
	if got, want := reg.Snapshot()[MetricMerges].Value, int64(2*(96-1)); got != want {
		t.Errorf("shared registry counted %d merges, want %d", got, want)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkRouteObs measures the construction with observability disabled
// (the production default — compare its ns/op across commits; perf/'s
// traced runs report the end-to-end cost as trace.overhead_pct), against
// a counting tracer (pure emission overhead), and with a live metrics
// registry.
func BenchmarkRouteObs(b *testing.B) {
	in := makeInstance(b, 128, 7)
	base := Options{Tech: tech.Default(), Method: MinSwitchedCap, Drivers: GatedTree}
	run := func(b *testing.B, opts Options) {
		b.ReportAllocs()
		var merges int
		for i := 0; i < b.N; i++ {
			_, s, err := Route(in, opts)
			if err != nil {
				b.Fatal(err)
			}
			merges = s.Merges
		}
		b.ReportMetric(float64(merges), "merges")
	}
	b.Run("disabled", func(b *testing.B) { run(b, base) })
	b.Run("traced", func(b *testing.B) {
		opts := base
		opts.Tracer = &obs.CountingTracer{}
		run(b, opts)
	})
	b.Run("metrics", func(b *testing.B) {
		opts := base
		opts.Metrics = obs.NewRegistry()
		run(b, opts)
	})
}
