package drill

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestNodeDrill is the node acceptance run: a seeded schedule of injected
// panics, errors and latency over the real routing pipeline, a kill/drain
// window and one snapshot/restart cycle must pass the node bar — no
// failure but the injected ones, ≥99% availability outside them, every
// panic recovered into a counted 500, the retry path and the breaker
// exercised, a warm restart, and no tree digest answered two ways.
func TestNodeDrill(t *testing.T) {
	rep, err := Node(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	logReport(t, rep)
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterDrill runs the three-phase cluster drill in-process over
// real sockets: healthy load, a shard killed mid-load with zero
// client-visible loss, and a warm restart that hands its keys back.
func TestClusterDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second end-to-end drill: skipped in -short")
	}
	rep, err := Cluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	logReport(t, rep)
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckRejects: a run that exercised nothing fails every condition of
// its drill's bar, and each is named.
func TestCheckRejects(t *testing.T) {
	idle := func(drill string, phases int) *Report {
		r := &Report{Drill: drill, Counters: map[string]int64{}}
		for range phases {
			r.Phases = append(r.Phases, Phase{Requests: 1, Failed: 1})
		}
		return r
	}
	for _, tc := range []struct {
		rep  *Report
		want []string
	}{
		{idle("node", 3), []string{"non-injected failures", "availability", "panics injected",
			"retry path", "snapshot saved", "breaker", "warm restart", "loaded no snapshot"}},
		{idle("cluster", 3), []string{"kill phase", "answered 0 of 1", "rebalance", "hand-back",
			"no L1 hits", "no L2 hits"}},
		{idle("cluster", 2), []string{"2 phases"}},
		{&Report{Drill: "node", Phases: make([]Phase, 3), DigestConflicts: []string{"x"}}, []string{"diverged"}},
	} {
		err := tc.rep.Check()
		if err == nil {
			t.Fatalf("%s report with %d phases passed", tc.rep.Drill, len(tc.rep.Phases))
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: %q does not name %q", tc.rep.Drill, err, w)
			}
		}
	}
}

func logReport(t *testing.T, rep *Report) {
	t.Helper()
	out, _ := json.MarshalIndent(rep, "", "  ")
	t.Logf("%s", out)
}
