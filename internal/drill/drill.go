// Package drill runs the routing service's two acceptance drills, each in
// three phases of real traffic through a serve.Client:
//
//   - Node: one server under a seeded fault schedule (chaos), then drained
//     while requests arrive (kill), then restarted from its cache snapshot
//     (restart);
//   - Cluster: a consistent-hash front tier over N shards, healthy, with
//     one shard killed mid-load (kill), and after its warm restart
//     (recovery).
//
// Both produce a Report, and Report.Check holds it to that drill's bar.
// The tests, examples/loadclient and the make smokes all call the same
// entry points and the same Check.
package drill

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Report is one drill's outcome — the record behind BENCH_chaos.json and
// BENCH_cluster.json.
type Report struct {
	// Drill is "node" or "cluster"; it selects Check's bar.
	Drill string `json:"drill"`
	// Shards and MultiProcess describe a cluster drill's topology.
	Shards       int     `json:"shards,omitempty"`
	MultiProcess bool    `json:"multiProcess,omitempty"`
	Phases       []Phase `json:"phases"`
	// Counters are the drill's service counters at the end of the run.
	Counters map[string]int64 `json:"counters"`
	// DigestConflicts lists request digests answered with two different
	// tree digests anywhere in the run.
	DigestConflicts []string `json:"digestConflicts,omitempty"`
}

// Phase is the client-side tally of one phase, with the drill's counter
// deltas over its traffic (a drain that outlasts the phase's last
// request, or a snapshot loaded before its first, may show only in the
// report's end-of-run counters). Every request lands in exactly one of
// OK, Shed, Injected and Failed.
type Phase struct {
	Name     string `json:"name"`
	Requests int    `json:"requests"`
	OK       int    `json:"ok"`
	// Cached counts the 200s a cache answered.
	Cached int `json:"cached"`
	// Shed counts final 429s; Injected final errors of kind panic or
	// injected (the fault schedule's own); Failed everything else.
	Shed     int              `json:"shed"`
	Injected int              `json:"injected"`
	Failed   int              `json:"failed"`
	P50Ms    float64          `json:"p50Ms"`
	P99Ms    float64          `json:"p99Ms"`
	Counters map[string]int64 `json:"counters"`
}

// Check holds the report to its drill's acceptance bar and names every
// condition that fails.
func (r *Report) Check() error {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if len(r.DigestConflicts) > 0 {
		fail("tree digests diverged: %v", r.DigestConflicts)
	}
	switch {
	case len(r.Phases) != 3:
		fail("%d phases, want 3", len(r.Phases))
	case r.Drill == "node":
		r.checkNode(fail)
	case r.Drill == "cluster":
		r.checkCluster(fail)
	default:
		fail("unknown drill %q", r.Drill)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s drill failed its bar: %s", r.Drill, strings.Join(bad, "; "))
	}
	return nil
}

// traffic is one phase's load: n requests cycling through bodies, sent
// from conc goroutines through client.
type traffic struct {
	name    string
	client  *serve.Client
	bodies  [][]byte
	n, conc int
	// timeout, when positive, is each request's deadline.
	timeout time.Duration
	// fault, when set, fires once, before request faultAt is sent.
	fault   func()
	faultAt int
}

// run accumulates one drill's report.
type run struct {
	rep   Report
	reg   *obs.Registry // the service counters the report reads
	names []string      // the counters it records
	trees map[string]string
}

func newRun(drill string, names []string) *run {
	return &run{rep: Report{Drill: drill}, reg: obs.NewRegistry(), names: names, trees: map[string]string{}}
}

func (r *run) counters() map[string]int64 {
	snap := r.reg.Snapshot()
	out := make(map[string]int64, len(r.names))
	for _, n := range r.names {
		out[n] = snap[n].Value
	}
	return out
}

// phase sends one phase's traffic and appends its tally to the report.
func (r *run) phase(t traffic) {
	before := r.counters()
	ph := Phase{Name: t.name, Requests: t.n}
	lats := make([]time.Duration, 0, t.n)
	var mu sync.Mutex
	var next atomic.Int64
	var faultOnce sync.Once
	var wg sync.WaitGroup
	for range t.conc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= t.n {
					return
				}
				if t.fault != nil && i >= t.faultAt {
					faultOnce.Do(t.fault)
				}
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if t.timeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, t.timeout)
				}
				start := time.Now()
				res, err := t.client.Route(ctx, t.bodies[i%len(t.bodies)])
				lat := time.Since(start)
				cancel()
				mu.Lock()
				lats = append(lats, lat)
				r.tally(&ph, res, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ph.P50Ms, ph.P99Ms = quantileMs(lats, 0.50), quantileMs(lats, 0.99)
	ph.Counters = r.counters()
	for n, v := range before {
		ph.Counters[n] -= v
	}
	r.rep.Phases = append(r.rep.Phases, ph)
}

// tally classifies one request's final outcome; callers hold the lock.
func (r *run) tally(ph *Phase, res *serve.ClientResult, err error) {
	switch {
	case err == nil && res.Status == http.StatusOK:
		resp := res.Response
		ph.OK++
		if resp.Cached {
			ph.Cached++
		}
		if prev, seen := r.trees[resp.Digest]; seen && prev != resp.TreeDigest {
			r.rep.DigestConflicts = append(r.rep.DigestConflicts,
				fmt.Sprintf("request %.12s: tree %.12s vs %.12s", resp.Digest, prev, resp.TreeDigest))
		} else {
			r.trees[resp.Digest] = resp.TreeDigest
		}
	case res != nil && res.Status == http.StatusTooManyRequests:
		ph.Shed++
	case res != nil && res.ErrorBody != nil && (res.ErrorBody.Kind == "panic" || res.ErrorBody.Kind == "injected"):
		ph.Injected++
	default:
		ph.Failed++
	}
}

// finish records the end-of-run counters and returns the report.
func (r *run) finish() *Report {
	r.rep.Counters = r.counters()
	return &r.rep
}

// quantileMs is the q-quantile of sorted latencies, in milliseconds.
func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))]) / float64(time.Millisecond)
}

// distinctBodies builds n valid 12-sink requests with consecutive seeds
// from seedBase: n distinct digests, each routed for real on its first
// miss.
func distinctBodies(n, seedBase int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf(
			`{"config":{"numSinks":12,"seed":%d,"numInstr":6,"streamLen":100},"mode":"gated-red"}`, seedBase+i))
	}
	return out
}
