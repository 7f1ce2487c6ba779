package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.SetMax(9)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil instruments must read as zero")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "help")
	c1.Add(2)
	c2 := r.Counter("x_total", "help")
	if c1 != c2 {
		t.Error("second registration returned a different counter")
	}
	if c2.Value() != 2 {
		t.Errorf("value %d, want 2", c2.Value())
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("x_total", "conflict")
}

func TestGaugeSetMax(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "")
	g.SetMax(5)
	g.SetMax(3)
	if g.Value() != 5 {
		t.Errorf("SetMax lowered the gauge to %d", g.Value())
	}
	g.SetMax(11)
	if g.Value() != 11 {
		t.Errorf("SetMax did not raise the gauge: %d", g.Value())
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cost", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.5+5+5+50+5000; got != want {
		t.Errorf("sum %v, want %v", got, want)
	}
	s := r.Snapshot()["cost"]
	wantCounts := []int64{1, 2, 1, 1} // ≤1, ≤10, ≤100, +Inf
	for i, b := range s.Buckets {
		if b.Count != wantCounts[i] {
			t.Errorf("bucket %d count %d, want %d", i, b.Count, wantCounts[i])
		}
	}
	if !math.IsInf(s.Buckets[3].Le, 1) {
		t.Errorf("last bucket bound %v, want +Inf", s.Buckets[3].Le)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c", "", ExpBuckets(1, 2, 10))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 37))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count %d, want 8000", h.Count())
	}
}

func TestWritePromParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("core_merges_total", "bottom-up merges").Add(42)
	r.Gauge("core_heap_len", "heap length").Set(17)
	h := r.Histogram("core_merge_cost", "cost", []float64{1, 10})
	h.Observe(5)
	h.Observe(50)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP core_merges_total bottom-up merges",
		"# TYPE core_merges_total counter",
		"core_merges_total 42",
		"# TYPE core_heap_len gauge",
		"core_heap_len 17",
		"# TYPE core_merge_cost histogram",
		`core_merge_cost_bucket{le="10"} 1`,
		`core_merge_cost_bucket{le="+Inf"} 2`,
		"core_merge_cost_sum 55",
		"core_merge_cost_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom dump missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name value" or "name{labels} value".
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("unparseable exposition line %q", line)
		}
	}
}

func TestJSONLTracerEmitsValidLines(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	now := time.Now()
	tr.Span(Span{Kind: SpanPhase, Name: "init", Start: now, Dur: 5 * time.Millisecond})
	tr.Span(Span{Kind: SpanMerge, Merge: 1, Start: now, Dur: time.Millisecond,
		A: 0, B: 3, K: 7, Cost: 123.5, Snaked: true, Evals: 4, Cached: 2, Skipped: 9, HeapDepth: 12})
	tr.Span(Span{Kind: SpanPhase, Name: "greedy", Start: now, Dur: 9 * time.Millisecond})
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	var kinds []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, m["kind"].(string))
		if m["kind"] == "merge" {
			// Node ID 0 must survive serialization (no omitempty).
			if _, ok := m["a"]; !ok {
				t.Error("merge line dropped the a=0 field")
			}
			if m["cost"].(float64) != 123.5 || m["heap_depth"].(float64) != 12 {
				t.Errorf("merge line fields wrong: %v", m)
			}
		}
	}
	if len(kinds) != 3 || kinds[0] != "phase" || kinds[1] != "merge" {
		t.Errorf("unexpected line kinds %v", kinds)
	}

	if tr.MergeCount() != 1 {
		t.Errorf("merge count %d, want 1", tr.MergeCount())
	}
	if d := tr.PhaseDurations()["greedy"]; d != 9*time.Millisecond {
		t.Errorf("greedy phase duration %v", d)
	}
	var sum bytes.Buffer
	if err := tr.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flame summary", "init", "greedy", "1 merges", "total"} {
		if !strings.Contains(sum.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sum.String())
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Tool:         "gcr",
		Bench:        "r1",
		Seed:         101,
		Sinks:        267,
		Options:      map[string]any{"mode": "gated-red", "workers": 4},
		DurationsNs:  map[string]int64{"init": 100, "greedy": 900, "embed": 50, "total": 1100},
		ResultDigest: "abc123",
		Result:       map[string]any{"total_sc": 1234.5},
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("manifest does not round-trip: %v", err)
	}
	if back.Bench != "r1" || back.Seed != 101 || back.ResultDigest != "abc123" ||
		back.DurationsNs["greedy"] != 900 {
		t.Errorf("round-trip lost fields: %+v", back)
	}
}

// BenchmarkCounterAdd measures the hot-path instrument update.
func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkHistogramObserve measures the lock-free histogram update.
func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_hist", "", ExpBuckets(1, 2, 24))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 1023))
	}
}

func TestHistogramQuantile(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %v, want 0", got)
	}

	r := NewRegistry()
	h := r.Histogram("q_test", "", []float64{10, 20, 40})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}

	// 10 observations uniformly inside (0,10]: the median interpolates to
	// the middle of the first bucket.
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	if got := h.Quantile(0.5); got != 5 {
		t.Errorf("single-bucket median = %v, want 5", got)
	}
	if got := h.Quantile(1); got != 10 {
		t.Errorf("q=1 of first bucket = %v, want its upper bound 10", got)
	}

	// Add 10 observations in (10,20]: the 0.75 rank now lands mid-second
	// bucket, and quantiles are monotone in q.
	for i := 0; i < 10; i++ {
		h.Observe(15)
	}
	if got := h.Quantile(0.75); got != 15 {
		t.Errorf("two-bucket q0.75 = %v, want 15", got)
	}
	if h.Quantile(0.25) > h.Quantile(0.5) || h.Quantile(0.5) > h.Quantile(0.9) {
		t.Error("quantile not monotone in q")
	}

	// Overflow observations clamp to the last finite bound.
	h.Observe(1e9)
	if got := h.Quantile(1); got != 40 {
		t.Errorf("overflow quantile = %v, want last finite bound 40", got)
	}
	if got := h.Quantile(-1); got < 0 {
		t.Errorf("q<0 returned %v", got)
	}
}

// PhaseDurations returns the accumulated wall time per phase name.
func (t *JSONLTracer) PhaseDurations() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration, len(t.phaseDur))
	for k, v := range t.phaseDur {
		out[k] = v
	}
	return out
}
