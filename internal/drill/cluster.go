package drill

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// ClusterConfig sizes the cluster drill.
type ClusterConfig struct {
	// Shards is the backend count (0 = 3).
	Shards int
	// GcrdBin, when non-empty, runs each shard as a gcrd subprocess at
	// this path — a multi-process cluster over loopback. Empty runs the
	// shards in-process (sockets still real), which composes with the
	// race detector.
	GcrdBin string
	// Requests is the request count over the three phases, split 2:1:1
	// (0 = 300).
	Requests int
	// Concurrency is the parallel client count (0 = 4).
	Concurrency int
}

// clusterCounters are the front-tier counters a cluster report records.
var clusterCounters = []string{
	"cluster_requests_total", "cluster_l1_hits_total", "cluster_l2_hits_total",
	"cluster_peer_hits_total", "cluster_forwards_total", "cluster_failovers_total",
	"cluster_rebalances_total", "cluster_handbacks_total",
}

// warmupDelay stretches the restarted shard's snapshot load so the
// recovery phase reliably sees it warming, the window peer fetch covers.
const warmupDelay = 500 * time.Millisecond

// Cluster runs the cluster drill: a front tier over Shards fresh shards
// (each with a 256-entry cache and a snapshot) through
//
//  1. healthy — a pool of distinct requests cycled about six times, so
//     the first pass forwards and the repeats hit L1;
//  2. kill — fresh keys join the mix and the last shard dies abruptly a
//     fifth of the way in; its keys fail over to their ring successors
//     within the same requests;
//  3. recovery — the victim restarts with a stretched warmup, and the kill
//     phase's mix is replayed while it warms.
//
// The front tier's L1 holds a tenth of Requests: more than the healthy
// pool, less than the kill mix, so the last two phases spill to the
// shards' caches and to peer fetch. The client makes one attempt per
// request, so any failure the front tier lets through is counted.
func Cluster(cfg ClusterConfig) (*Report, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 300
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	dir, err := os.MkdirTemp("", "drill-cluster-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	procs := make([]shardProc, cfg.Shards)
	urls := make([]string, cfg.Shards)
	for i := range procs {
		snap := filepath.Join(dir, fmt.Sprintf("shard%d.snap", i))
		if cfg.GcrdBin != "" {
			procs[i] = &execShard{bin: cfg.GcrdBin, snap: snap}
		} else {
			procs[i] = &localShard{cfg: serve.Config{CacheSize: 256, SnapshotPath: snap, SnapshotInterval: 200 * time.Millisecond}}
		}
		if err := procs[i].start(0); err != nil {
			return nil, err
		}
		defer procs[i].stop(true)
		urls[i] = procs[i].url()
	}

	r := newRun("cluster", clusterCounters)
	r.rep.Shards, r.rep.MultiProcess = cfg.Shards, cfg.GcrdBin != ""
	rt, err := cluster.New(cluster.Config{
		Shards:         urls,
		L1Size:         max(8, cfg.Requests/10),
		ForwardTimeout: 30 * time.Second,
		ProbeInterval:  100 * time.Millisecond,
		Metrics:        r.reg,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	if err := waitAllReady(rt, 15*time.Second); err != nil {
		return nil, err
	}
	client := &serve.Client{Transport: serve.HandlerTransport(rt.Handler()), MaxAttempts: 1, BreakerThreshold: -1}

	healthy, kill, recovery := cfg.Requests/2, cfg.Requests/4, cfg.Requests/4
	poolA := distinctBodies(healthy/6+1, 42)
	r.phase(traffic{name: "healthy", client: client, bodies: poolA, n: healthy, conc: cfg.Concurrency})

	mix := append(append([][]byte{}, poolA...), distinctBodies(kill/4+1, 10042)...)
	victim := procs[len(procs)-1]
	r.phase(traffic{name: "kill", client: client, bodies: mix, n: kill, conc: cfg.Concurrency,
		fault: func() { victim.stop(false) }, faultAt: kill / 5})

	if err := victim.start(warmupDelay); err != nil {
		return nil, fmt.Errorf("drill: restart victim: %w", err)
	}
	rt.ProbeNow()
	r.phase(traffic{name: "recovery", client: client, bodies: mix, n: recovery, conc: cfg.Concurrency})
	if err := waitAllReady(rt, 15*time.Second); err != nil {
		return nil, err
	}
	return r.finish(), nil
}

// checkCluster is the cluster drill's bar: every request of every phase
// answered, the kill observed as a rebalance and the restart as a
// hand-back, L1 hits in the healthy phase and L2 hits in the run.
func (r *Report) checkCluster(fail func(string, ...any)) {
	if kill := r.Phases[1]; kill.Failed != 0 {
		fail("%d client-visible failures in the kill phase", kill.Failed)
	}
	for _, ph := range r.Phases {
		if ph.OK != ph.Requests {
			fail("phase %s answered %d of %d (shed %d, injected %d, failed %d)",
				ph.Name, ph.OK, ph.Requests, ph.Shed, ph.Injected, ph.Failed)
		}
	}
	c := r.Counters
	if c["cluster_rebalances_total"] == 0 {
		fail("the kill never registered as a rebalance")
	}
	if c["cluster_handbacks_total"] == 0 {
		fail("the restart never registered as a hand-back")
	}
	if r.Phases[0].Counters["cluster_l1_hits_total"] == 0 {
		fail("the healthy phase had no L1 hits")
	}
	if c["cluster_l2_hits_total"] == 0 {
		fail("the run had no L2 hits")
	}
}

// waitAllReady probes until every shard reports ready.
func waitAllReady(rt *cluster.Router, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		rt.ProbeNow()
		ready := true
		for _, s := range rt.ShardStates() {
			ready = ready && s.State == "ready"
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("drill: shards not ready after %v: %+v", timeout, rt.ShardStates())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// shardProc is one shard's lifecycle, in this process or in a gcrd
// subprocess. A proc keeps its address across restarts, so the front
// tier's shard list stays valid.
type shardProc interface {
	url() string
	// start launches the shard; warmup stretches its snapshot load.
	start(warmup time.Duration) error
	// stop ends it: gracefully (drain + final snapshot) or abruptly
	// (connections die mid-flight).
	stop(graceful bool) error
}

// localShard runs a serve.Server on a real loopback listener inside this
// process — the race-detector-friendly shard.
type localShard struct {
	cfg  serve.Config
	addr string
	srv  *serve.Server
	hs   *http.Server
	done chan struct{}
}

func (p *localShard) url() string { return "http://" + p.addr }

func (p *localShard) start(warmup time.Duration) error {
	listen := p.addr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return fmt.Errorf("drill: shard listen %s: %w", listen, err)
	}
	p.addr = ln.Addr().String()
	cfg := p.cfg
	cfg.WarmupDelay = warmup
	p.srv = serve.New(cfg)
	p.hs = &http.Server{Handler: p.srv.Handler()}
	p.done = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		hs.Serve(ln)
		close(done)
	}(p.hs, p.done)
	return nil
}

func (p *localShard) stop(graceful bool) error {
	if p.srv == nil {
		return nil
	}
	if graceful {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		drainErr := p.srv.Shutdown(ctx) // drain + final snapshot
		p.hs.Shutdown(ctx)
		<-p.done
		p.srv = nil
		return drainErr
	}
	// Abrupt: the listener and every open connection die first, so
	// in-flight forwards see transport errors exactly like a process
	// crash; the drain below only reaps the worker goroutines (its
	// snapshot write is the periodic one a real crash would also have).
	p.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	p.srv.Shutdown(ctx)
	<-p.done
	p.srv = nil
	return nil
}

// execShard runs a shard as a gcrd subprocess with a 256-entry cache.
type execShard struct {
	bin     string
	addr    string
	snap    string
	cmd     *exec.Cmd
	waitErr chan error
}

func (p *execShard) url() string { return "http://" + p.addr }

func (p *execShard) start(warmup time.Duration) error {
	if p.addr == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		p.addr = ln.Addr().String()
		ln.Close()
	}
	args := []string{
		"-addr", p.addr,
		"-cache", "256",
		"-snapshot", p.snap,
		"-snapshot-interval", "200ms",
		"-grace", "10s",
	}
	if warmup > 0 {
		args = append(args, "-warmup-delay", warmup.String())
	}
	p.cmd = exec.Command(p.bin, args...)
	p.cmd.Stdout = os.Stderr
	p.cmd.Stderr = os.Stderr
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("drill: start %s: %w", p.bin, err)
	}
	p.waitErr = make(chan error, 1)
	go func(cmd *exec.Cmd, ch chan error) { ch <- cmd.Wait() }(p.cmd, p.waitErr)
	// Wait for liveness: the process owns its socket once /healthz answers.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(p.url() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	p.cmd.Process.Kill()
	<-p.waitErr
	return fmt.Errorf("drill: shard %s never became live", p.addr)
}

func (p *execShard) stop(graceful bool) error {
	if p.cmd == nil {
		return nil
	}
	if graceful {
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.waitErr:
		case <-time.After(15 * time.Second):
			p.cmd.Process.Kill()
			<-p.waitErr
		}
	} else {
		p.cmd.Process.Kill()
		<-p.waitErr
	}
	p.cmd = nil
	return nil
}
