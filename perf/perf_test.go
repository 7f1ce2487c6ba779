package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileIQRGeomean(t *testing.T) {
	cases := []struct {
		name      string
		got, want float64
	}{
		{"median even", median([]float64{4, 1, 3, 2}), 2.5},
		{"median odd", median([]float64{5, 1, 3}), 3},
		{"q25 of 1..5", quantile([]float64{1, 2, 3, 4, 5}, 0.25), 2},
		{"q90 of 1..11", quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9), 10},
		{"q95 interpolates", quantile([]float64{0, 10}, 0.95), 9.5},
		{"q1 is the max", quantile([]float64{3, 9, 1}, 1), 9},
		{"iqr of 1..5", iqr([]float64{5, 4, 3, 2, 1}), 2},
		{"iqr of 1..8", iqr([]float64{1, 2, 3, 4, 5, 6, 7, 8}), 3.5},
		{"geomean", geomean([]float64{1, 4, 16}), 4},
		{"geomean of one", geomean([]float64{7}), 7},
		{"mean", mean([]float64{1, 2, 6}), 3},
		{"tail of 1000 is p99", tailQ(1000), 0.99},
		{"tail of 264 leaves ten above", tailQ(264), 1 - 10.0/264},
		{"tail of 5 is the max", tailQ(5), 1},
		{"slope", slope([]float64{1, 2, 3}, []float64{2, 4, 6}), 2},
	}
	for _, c := range cases {
		if !near(c.got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
	if median(nil) != 0 {
		t.Error("median of nothing should be 0")
	}
}

func TestSlotStatsLeaveOutASlowSecond(t *testing.T) {
	lats := []float64{1, 2, 3, 50, 3, 4, 5, 70}
	slot := []int{0, 1, 2, 3, 0, 1, 2, 3} // second 3 is a slow spell
	p90, avg := slotStats(lats, slot)
	// Seconds 0–2 have p90s 2.8, 3.8, 4.8 and means 2, 3, 4.
	if !near(p90, 3.8) || !near(avg, 3) {
		t.Errorf("slotStats = %v, %v; want 3.8, 3", p90, avg)
	}
}

func TestScalingExponentRecoversPower(t *testing.T) {
	sizes := []int{100, 400, 1600}
	samples := make([][]float64, len(sizes))
	for i, n := range sizes {
		x := math.Pow(float64(n), 1.5)
		samples[i] = []float64{x * 0.9, x, x * 1.1}
	}
	b, lo, hi := scalingExponent(sizes, samples, rand.New(rand.NewPCG(1, 2)))
	if !near(b, 1.5) {
		t.Errorf("exponent %v, want 1.5", b)
	}
	if !(lo <= b && b <= hi) || hi-lo > 0.2 {
		t.Errorf("band [%v, %v] should bracket %v narrowly", lo, hi, b)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: 10–60 is covered once
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},  // nested under a
		{ID: 5, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 6, Name: "phase", Start: 70, End: 80},         // unlinked, enclosed by root in aggregate
		{ID: 7, Name: "other", Start: 200, End: 230},       // a second root
	}
	enclosing := map[string]string{"phase": "root"}
	got := selfTimes(spans, enclosing)
	want := map[string]int64{
		"root":  100 - 50 - 10 - 10, // minus a∪b, the clipped second b, the phase
		"a":     30 - 5,
		"b":     30 + 30,
		"c":     5,
		"phase": 10,
		"other": 30,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	if wall := rootTime(spans, enclosing); wall != 130 {
		t.Errorf("root time %d, want 130", wall)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.05}
	higher := metricDef{Name: "rps", Better: "higher", Bound: 0.05}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name       string
		base, head []float64
		m          metricDef
		want       string
	}{
		{"faster everywhere", base, shift(base, 0.9), lower, "better"},
		{"unchanged", base, base, lower, "within-bound"},
		{"slower beyond the bound", base, shift(base, 1.2), lower, "worse"},
		{"slower within the bound", base, shift(base, 1.03), lower, "within-bound"},
		{"higher is better", base, shift(base, 1.1), higher, "better"},
		{"lower when higher is better", base, shift(base, 0.8), higher, "worse"},
		{"fewer than ten pairs claim nothing", base[:9], shift(base[:9], 0.9), lower, "within-bound"},
		{"noisy base", []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110},
			[]float64{150, 50, 140, 60, 130, 70, 120, 80, 110, 90}, lower, "unresolved"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.base, c.head, c.m); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// Eight wins in ten pairs is not nine in ten, however large the gain.
	head := shift(base, 0.5)
	head[0], head[1] = 200, 200
	if got, wins := verdict(base, head, lower); got == "better" || wins != 8 {
		t.Errorf("8 of 10 wins: %s with %d wins", got, wins)
	}
}

func TestSameSeedSameBodies(t *testing.T) {
	if !reflect.DeepEqual(coldBodies(3), coldBodies(3)) ||
		!reflect.DeepEqual(zipfBodies(3), zipfBodies(3)) ||
		!reflect.DeepEqual(mixInstances(3, false), mixInstances(3, false)) {
		t.Fatal("the same seed must give byte-identical workload inputs")
	}
	if reflect.DeepEqual(coldBodies(3), coldBodies(4)) ||
		reflect.DeepEqual(zipfBodies(3), zipfBodies(4)) ||
		reflect.DeepEqual(mixInstances(3, false), mixInstances(4, false)) {
		t.Fatal("another seed must give other inputs")
	}
	seen := map[string]bool{}
	for _, b := range coldBodies(1) {
		if seen[string(b)] {
			t.Fatalf("serve-cold repeats a body: %s", b)
		}
		seen[string(b)] = true
	}
	if n := len(mixInstances(1, false)); n != 44 {
		t.Fatalf("route-mix has %d instances, want 44", n)
	}
}

// TestPinsCoverInputs checks that every input a run at the default seed
// can send, however long it runs, has a pinned digest.
func TestPinsCoverInputs(t *testing.T) {
	want := map[string][]string{}
	for i := range coldPool {
		want["serve-cold"] = append(want["serve-cold"], strconv.Itoa(i))
	}
	for i := range zipfKeys {
		want["cluster-zipf"] = append(want["cluster-zipf"], strconv.Itoa(i))
	}
	for _, in := range mixInstances(1, false) {
		want["route-mix"] = append(want["route-mix"], in.label)
	}
	for name, keys := range want {
		pins, err := loadPins(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(pins) != len(keys) {
			t.Errorf("%s: %d pins for %d inputs", name, len(pins), len(keys))
		}
		for _, k := range keys {
			if pins[k] == "" {
				t.Errorf("%s: input %s has no pin", name, k)
				break
			}
		}
	}
}

// TestShortSmoke runs every workload at tiny scale, traced, the way a
// child process does, with the default seed's pins checked.
func TestShortSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runWorkload(context.Background(), w, config{Seed: 1, Seconds: 0.2, Short: true, Trace: true})
			for _, p := range res.Problems {
				t.Error(p)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%d attempted, %d failed", res.Attempted, res.Failed)
			}
			for _, m := range endToEnd {
				if v, ok := res.EndToEnd[m.Name]; m.Name != "peak_rss_mb" && (!ok || !(v > 0)) {
					t.Errorf("end-to-end %s = %v", m.Name, v)
				}
			}
			for _, m := range perLayer {
				if _, ok := res.PerLayer[m.Name]; !ok {
					t.Errorf("per-layer %s missing", m.Name)
				}
			}
			cov := res.PerLayer["trace.coverage_pct"]
			if !(cov > 0 && cov < 100) {
				t.Errorf("trace coverage %.2f%%: the benchmark's own spans should show", cov)
			}
			if strings.HasPrefix(w.name, "route-") && cov < 95 {
				t.Errorf("trace covers %.1f%% of wall", cov)
			}
			if w.name == "serve-cold" && res.PerLayer["serve.cache_hit_ratio"] != 0 {
				t.Errorf("serve-cold hit the cache")
			}
		})
	}
}

// TestSetupOnly checks that a set-up-only run times its set-ups and stops
// there, as the processes that only sample set-up do.
func TestSetupOnly(t *testing.T) {
	for _, w := range workloads {
		res := runWorkload(context.Background(), w, config{Seed: 1, Seconds: 0.2, Short: true, SetupOnly: true})
		if len(res.Problems) > 0 || res.Attempted != 0 || len(res.Setups) < 5 {
			t.Errorf("%s: problems %v, %d attempted, %d set-ups", w.name, res.Problems, res.Attempted, len(res.Setups))
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the
// repository's benchmark runner reads, in step with this program.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, want the default -seconds %v", spec.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v\nwant %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer %+v\nwant %+v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
}
