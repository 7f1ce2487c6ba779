// Command loadclient runs one of the routing service's acceptance drills
// (internal/drill), prints its phases, holds it to the drill's bar and
// optionally writes the report as JSON.
//
// With -chaos it runs the node drill: a seeded schedule of injected worker
// panics, 5xx errors and latency against the real routing pipeline, a
// kill/drain window that drives the resilient client's circuit breaker
// open, and one snapshot/restart cycle. The checked-in BENCH_chaos.json
// is the reviewed record of this run, re-recorded on purpose; `make
// chaos-smoke` writes bin/BENCH_chaos.json instead, since the counts vary
// from run to run.
//
// With -cluster it runs the cluster drill: a consistent-hash front tier
// over N shard backends (in-process by default; gcrd subprocesses over
// loopback with -gcrd) through a healthy phase, a kill-one-shard phase
// that must lose no client-visible request, and a warm-restart recovery
// phase. The checked-in BENCH_cluster.json is the reviewed record of this
// run with two gcrd subprocesses, re-recorded on purpose; `make
// cluster-smoke` writes bin/BENCH_cluster.json instead.
//
// Usage:
//
//	go run ./examples/loadclient -chaos -n 300 -json bin/BENCH_chaos.json
//	go run ./examples/loadclient -cluster -shards 3 -n 400
//	go run ./examples/loadclient -cluster -shards 2 -gcrd bin/gcrd -n 300 -c 4 -json bin/BENCH_cluster.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/drill"
)

func main() {
	n := flag.Int("n", 300, "requests: the chaos phase's with -chaos, all three phases' with -cluster")
	conc := flag.Int("c", 0, "concurrent clients (0 = the drill's default)")
	jsonOut := flag.String("json", "", "also write the drill report as JSON to this file")
	chaos := flag.Bool("chaos", false, "run the node drill (fault injection, kill window, warm restart)")
	clusterMode := flag.Bool("cluster", false, "run the cluster drill (front tier + shards, kill-one-shard phase, warm-restart recovery)")
	shards := flag.Int("shards", 3, "shard count for -cluster")
	gcrdBin := flag.String("gcrd", "", "path to a gcrd binary: run -cluster shards as subprocesses over loopback (empty = in-process)")
	flag.Parse()
	if err := run(*chaos, *clusterMode, *n, *conc, *shards, *gcrdBin, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "loadclient:", err)
		os.Exit(1)
	}
}

func run(chaos, clusterMode bool, n, conc, shards int, gcrdBin, jsonOut string) error {
	var rep *drill.Report
	var err error
	switch {
	case chaos == clusterMode:
		return errors.New("pick exactly one drill: -chaos or -cluster")
	case chaos:
		rep, err = drill.Node(drill.NodeConfig{Requests: n, Concurrency: conc})
	default:
		rep, err = drill.Cluster(drill.ClusterConfig{Shards: shards, GcrdBin: gcrdBin, Requests: n, Concurrency: conc})
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s drill", rep.Drill)
	if rep.Shards > 0 {
		fmt.Printf(": %d shards (multi-process %v)", rep.Shards, rep.MultiProcess)
	}
	fmt.Println()
	for _, ph := range rep.Phases {
		fmt.Printf("  %-8s %4d req  ok %d (cached %d)  shed %d  injected %d  failed %d  p50 %.2fms  p99 %.2fms\n",
			ph.Name, ph.Requests, ph.OK, ph.Cached, ph.Shed, ph.Injected, ph.Failed, ph.P50Ms, ph.P99Ms)
		fmt.Printf("           %v\n", nonzero(ph.Counters))
	}
	fmt.Printf("  end of run: %v\n", nonzero(rep.Counters))
	if err := rep.Check(); err != nil {
		return err
	}
	fmt.Println("  acceptance: PASS")
	if jsonOut == "" {
		return nil
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", jsonOut)
	return nil
}

func nonzero(counters map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range counters {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}
