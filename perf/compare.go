package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords reads a -record file into each workload's end-to-end
// metrics, run by run in file order.
func readRecords(path string) (map[string][]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[rec.Workload] = append(out[rec.Workload], rec.EndToEnd)
	}
	return out, sc.Err()
}

// verdict applies the repository's decision rule to the i-th base run
// paired with the i-th head run of one metric (run them alternately):
//
//   - better: at least ten pairs, the head wins at least nine in ten of
//     them (ties count for neither), and the medians differ, in the
//     head's favour, by more than the base runs' interquartile range;
//   - unresolved: the base runs spread wider than the metric's bound and
//     not every head run beats every base run;
//   - worse: the head median is worse than the base median by more than
//     the bound;
//   - within-bound: otherwise.
func verdict(base, head []float64, m metricDef) (string, int) {
	n := min(len(base), len(head))
	base, head = base[:n], head[:n]
	gain := func(b, h float64) float64 { // > 0 when h improves on b
		if m.Better == "higher" {
			return h - b
		}
		return b - h
	}
	wins := 0
	for i := range n {
		if gain(base[i], head[i]) > 0 {
			wins++
		}
	}
	mb, mh := median(base), median(head)
	allBetter := n > 0
	for _, b := range base {
		for _, h := range head {
			if gain(b, h) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case n >= 10 && 10*wins >= 9*n && gain(mb, mh) > iqr(base):
		return "better", wins
	case iqr(base) > m.Bound*mb && !allBetter:
		return "unresolved", wins
	case -gain(mb, mh) > m.Bound*mb:
		return "worse", wins
	}
	return "within-bound", wins
}

// compareMain prints a verdict for every workload × end-to-end metric the
// two record files share. It exits 1 when any verdict is worse.
func compareMain(w io.Writer, basePath, headPath string) int {
	base, err := readRecords(basePath)
	if err == nil {
		var head map[string][]map[string]float64
		if head, err = readRecords(headPath); err == nil {
			return printComparison(w, base, head)
		}
	}
	fmt.Fprintln(os.Stderr, "perf:", err)
	return 2
}

func printComparison(w io.Writer, base, head map[string][]map[string]float64) int {
	code := 0
	fmt.Fprintf(w, "%-13s %-12s %5s %24s %24s %5s  %s\n",
		"workload", "metric", "pairs", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
	for _, wl := range workloads {
		b, h := base[wl.name], head[wl.name]
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		for _, m := range endToEnd {
			bs, hs := column(b, m.Name), column(h, m.Name)
			v, wins := verdict(bs, hs, m)
			if v == "worse" {
				code = 1
			}
			n := min(len(bs), len(hs))
			fmt.Fprintf(w, "%-13s %-12s %5d %24s %24s %5d  %s\n", wl.name, m.Name, n,
				spread(bs[:n]), spread(hs[:n]), wins, v)
		}
	}
	return code
}

func column(runs []map[string]float64, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r[name]
	}
	return out
}

func spread(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), quantile(xs, 0.25), quantile(xs, 0.75))
}
