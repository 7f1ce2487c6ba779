// Command perf is the repository's benchmark. It runs four workloads —
// one 100k-sink route, the paper's r1–r5 suite with small and non-uniform
// instances, cold requests against one server, and Zipf traffic through
// the cluster front tier — each in a child process of its own, checks
// every routed tree against pinned digests and the independent verifier,
// and prints every end-to-end metric by name and unit. A traced run adds
// per-layer self times. See README.md.
//
// Usage, from the repository root:
//
//	bash perf/run.sh                                # every workload
//	bash perf/run.sh -workload route-mix -seed 7    # one workload, another seed
//	bash perf/run.sh -workload serve-cold -seconds 30
//	bash perf/run.sh -workload serve-cold -trace 1  # per-layer metrics
//	bash perf/run.sh -trace 1 -spans out/           # …and span files in out/
//	bash perf/run.sh -workload route-mix -record head.jsonl
//	bash perf/run.sh -compare base.jsonl head.jsonl
//	bash perf/run.sh -pin perf/testdata             # re-pin tree digests
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics with their units.
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// defaultSeconds is how long a workload measures unless -seconds says
// otherwise. BENCHMARK.json's run_seconds is the same; automated runners
// pass it as -seconds.
const defaultSeconds = 20

// childTimeout bounds one workload process.
const childTimeout = 150 * time.Second

// workload is one named input set.
type workload struct {
	name string
	run  func(context.Context, *run) error
}

var workloads = []workload{
	{"route-100k", route100k},
	{"route-mix", routeMix},
	{"serve-cold", serveCold},
	{"cluster-zipf", clusterZipf},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "run only this workload (route-100k|route-mix|serve-cold|cluster-zipf)")
	seed := flag.Uint64("seed", 1, "input seed; the pinned digests are those of seed 1")
	seconds := flag.Float64("seconds", defaultSeconds, "how long each workload measures")
	trace := flag.Int("trace", 0, "1: also run each workload traced and report its per-layer metrics")
	spans := flag.String("spans", "", "with -trace 1, write each workload's spans to this directory as JSONL")
	record := flag.String("record", "", "append each workload's metrics as one JSON line to this file (input to -compare)")
	compare := flag.Bool("compare", false, "compare two -record files given as arguments: base, then head")
	pin := flag.String("pin", "", "rewrite the pinned tree digests into this directory and exit")
	child := flag.String("child", "", "run this one workload in this process and print its result as JSON (how each workload gets a process of its own)")
	setupOnly := flag.Bool("setup-only", false, "with -child: only time the workload's set-up (how set-up is sampled in more than one process)")
	flag.Parse()

	ctx := context.Background()
	cfg := config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, SetupOnly: *setupOnly}
	switch {
	case !(*seconds > 0):
		usage("-seconds must be positive")
	case *trace != 0 && *trace != 1:
		usage("-trace must be 0 or 1")
	case *spans != "" && !cfg.Trace:
		usage("-spans needs -trace 1")
	case *compare:
		if flag.NArg() != 2 {
			usage("-compare wants two record files: base, then head")
		}
		os.Exit(compareMain(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *pin != "":
		if err := writePins(ctx, *pin); err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			os.Exit(1)
		}
	case *child != "":
		w, ok := findWorkload(*child)
		if !ok {
			usage("unknown workload " + *child)
		}
		os.Exit(childMain(ctx, w, cfg, *spans))
	default:
		names := []string{*name}
		if *name == "" {
			names = nil
			for _, w := range workloads {
				names = append(names, w.name)
			}
		} else if _, ok := findWorkload(*name); !ok {
			usage("unknown workload " + *name)
		}
		os.Exit(runAll(ctx, os.Stdout, names, cfg, *spans, *record))
	}
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "perf:", msg)
	flag.Usage()
	os.Exit(2)
}

// runWorkload runs one workload in this process.
func runWorkload(ctx context.Context, w workload, cfg config) result {
	r := newRun(w.name, cfg)
	if err := w.run(ctx, r); err != nil && !errors.Is(err, errSetupOnly) {
		r.problem("%v", err)
	}
	return r.finish()
}

// childMain runs one workload and prints its result; a traced run writes
// its spans into the directory spans unless that is empty.
func childMain(ctx context.Context, w workload, cfg config, spans string) int {
	res := runWorkload(ctx, w, cfg)
	if cfg.Trace && spans != "" {
		if err := writeJSONL(filepath.Join(spans, w.name+".jsonl"), res.spans); err != nil {
			res.Problems = append(res.Problems, "writing spans: "+err.Error())
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	return 0
}

// setupProcs is how many processes time a workload's set-up: the one that
// measures the workload and setupProcs−1 that only set it up. A process
// keeps one set-up speed for its life, and the speeds differ: the serving
// workloads' set-up, under a millisecond of listening, connecting and
// goroutine hand-offs, took either about 0.42 or about 0.65 ms a process
// on the 2-vCPU host measured, with or without address randomization or
// a pinned CPU. Pooling the set-ups of several processes keeps setup_s
// from jumping between the two from run to run.
const setupProcs = 4

// spawn runs one workload in a child process — this program again — so
// its peak RSS and garbage-collector state are its own, and times its
// set-up in setupProcs−1 more; setup_s is the median of every set-up.
func spawn(ctx context.Context, name string, cfg config, spans string) (*result, error) {
	res, err := spawnOne(ctx, name, cfg, spans)
	if err != nil {
		return nil, err
	}
	setups := res.Setups
	probe := config{Seed: cfg.Seed, Seconds: cfg.Seconds, SetupOnly: true}
	for range setupProcs - 1 {
		p, err := spawnOne(ctx, name, probe, "")
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.Setups...)
	}
	res.EndToEnd["setup_s"] = median(setups) / 1000
	res.Details["setup_reps"] = float64(len(setups))
	return res, nil
}

func spawnOne(ctx context.Context, name string, cfg config, spans string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", name, "-seed", strconv.FormatUint(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64)}
	if cfg.Trace {
		args = append(args, "-trace", "1")
	}
	if spans != "" {
		args = append(args, "-spans", spans)
	}
	if cfg.SetupOnly {
		args = append(args, "-setup-only")
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s: reading the workload's result: %w", name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.EndToEnd["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &res, nil
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runAll runs each named workload in a child process, untraced and,
// with tracing on, traced as well; it prints a report per workload and
// the result line. With one workload the metrics keep their names;
// with several, each is prefixed by its workload.
func runAll(ctx context.Context, w io.Writer, names []string, cfg config, spans, record string) int {
	if spans != "" {
		if err := os.MkdirAll(spans, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 1
		}
	}
	fmt.Fprintf(w, "host: %s %s/%s, %d CPUs, GOMAXPROCS %d; seed %d, %g s per workload\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		cfg.Seed, cfg.Seconds)
	line := resultLine{Correct: true, Metrics: map[string]value{}}
	emit := func(workload string, defs []metricDef, vals map[string]float64) {
		for _, m := range defs {
			key := m.Name
			if len(names) > 1 {
				key = workload + "/" + m.Name
			}
			line.Metrics[key] = value{vals[m.Name], m.Unit}
		}
	}
	for _, name := range names {
		plain := cfg
		plain.Trace = false
		u, err := spawn(ctx, name, plain, "")
		if err != nil {
			fmt.Fprintln(w, "perf:", err)
			line.Correct = false
			continue
		}
		line.Attempted += u.Attempted
		line.Failed += u.Failed
		var t *result
		if cfg.Trace {
			if t, err = spawn(ctx, name, cfg, spans); err != nil {
				fmt.Fprintln(w, "perf:", err)
				line.Correct = false
				continue
			}
			line.Attempted += t.Attempted
			line.Failed += t.Failed
			t.PerLayer["trace.overhead_pct"] = 100 * (t.EndToEnd["mean_ms"]/u.EndToEnd["mean_ms"] - 1)
			if t.Trees != u.Trees {
				t.Problems = append(t.Problems, fmt.Sprintf("traced trees %s, untraced %s", t.Trees, u.Trees))
			}
		}
		printReport(w, u, t)
		if !u.ok() || !t.ok() {
			line.Correct = false
		}
		if t != nil {
			emit(name, perLayer, t.PerLayer)
		} else {
			emit(name, endToEnd, u.EndToEnd)
		}
		if record != "" {
			if err := appendRecord(record, cfg, u, t); err != nil {
				fmt.Fprintln(w, "perf:", err)
				line.Correct = false
			}
		}
	}
	if err := json.NewEncoder(w).Encode(line); err != nil {
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

func printReport(w io.Writer, u, t *result) {
	verdict := "correct"
	if !u.ok() || !t.ok() {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "\n%s: %s · %d operations, %d failed\n", u.Workload, verdict, u.Attempted, u.Failed)
	for _, res := range []*result{u, t} {
		if res == nil {
			continue
		}
		for _, p := range res.Problems {
			fmt.Fprintln(w, "  problem:", p)
		}
	}
	fmt.Fprintln(w, "  end to end")
	printMetrics(w, endToEnd, u.EndToEnd)
	fmt.Fprintln(w, "  details")
	for _, k := range sortedKeys(u.Details) {
		fmt.Fprintf(w, "    %-28s %.6g\n", k, u.Details[k])
	}
	if t == nil {
		return
	}
	fmt.Fprintf(w, "  traced: wall %.1f ms, coverage %.2f %%, overhead %+.2f %%\n",
		t.WallMs, t.PerLayer["trace.coverage_pct"], t.PerLayer["trace.overhead_pct"])
	fmt.Fprintf(w, "    %-20s %12s %8s\n", "layer", "self ms", "share")
	layers := sortedKeys(t.SelfMs)
	slices.SortStableFunc(layers, func(a, b string) int {
		return cmp.Compare(t.SelfMs[b], t.SelfMs[a])
	})
	for _, k := range layers {
		fmt.Fprintf(w, "    %-20s %12.3f %7.2f%%\n", k, t.SelfMs[k], 100*t.SelfMs[k]/t.WallMs)
	}
	fmt.Fprintln(w, "  per layer")
	printMetrics(w, perLayer, t.PerLayer)
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, m := range defs {
		fmt.Fprintf(w, "    %-28s %14.6g %s\n", m.Name, vals[m.Name], m.Unit)
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// record is one workload run in a -record file.
type record struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Host     string             `json:"host"`
	EndToEnd map[string]float64 `json:"endToEnd"`
	PerLayer map[string]float64 `json:"perLayer,omitempty"`
}

func appendRecord(path string, cfg config, u, t *result) error {
	rec := record{Workload: u.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, EndToEnd: u.EndToEnd,
		Host: fmt.Sprintf("%s/%s %d CPUs", runtime.GOOS, runtime.GOARCH, runtime.NumCPU())}
	if t != nil {
		rec.PerLayer = t.PerLayer
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(data, '\n'))
	return errors.Join(err, f.Close())
}
