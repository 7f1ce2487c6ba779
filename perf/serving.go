package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	gatedclock "repro"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serveEnclosing: the server's spans carry no request ID yet, so they are
// charged to the client request enclosing them in aggregate (selfTimes);
// core phase spans sit inside the server's serve.route.
var serveEnclosing = map[string]string{
	"serve.queue": "client.request", "serve.route": "client.request",
	"core.init": "serve.route", "core.greedy": "serve.route", "core.embed": "serve.route",
}

const (
	// coldRate is serve-cold's arrivals per second: the issue's low step,
	// about a quarter of one core. At 100 a second, queueing behind the
	// host's slow spells doubled the run-to-run spread of the latencies.
	coldRate = 50.0
	// coldPool is serve-cold's number of distinct bodies, sent in turn and
	// from the first again when a run outlasts them: a body comes round
	// only after coldPool−1 others, long after the server's 128-entry cache
	// evicted it, so every request still misses. A fixed pool is what the
	// pin file covers, whatever the run's length.
	coldPool    = 1500
	zipfKeys    = 4096 // cluster-zipf's distinct request bodies
	zipfWarmup  = 2000 // cluster-zipf's untimed first requests
	spotChecks  = 8    // answers re-routed locally with the verifier on
	lateSendLag = time.Millisecond
)

// bodies builds n gated-red requests for synthesized instances, request i
// of size(i) sinks with a seed drawn from rng and the placements in
// rotation. The bodies share one buffer: building them is part of set-up,
// which should time the service, not the allocator.
func bodies(n int, rng *rand.Rand, size func(i int) int) [][]byte {
	places := bench.Placements()
	buf := make([]byte, 0, n*112) // a body is at most about 100 bytes
	out := make([][]byte, n)
	for i := range out {
		start := len(buf)
		buf = append(buf, `{"config":{"numSinks":`...)
		buf = strconv.AppendInt(buf, int64(size(i)), 10)
		buf = append(buf, `,"seed":`...)
		buf = strconv.AppendUint(buf, rng.Uint64(), 10)
		buf = append(buf, `,"placement":"`...)
		buf = append(buf, places[i%len(places)]...)
		buf = append(buf, `"},"mode":"gated-red"}`...)
		out[i] = buf[start:len(buf):len(buf)]
	}
	return out
}

// coldBodies are serve-cold's coldPool bodies, all distinct. numSinks is
// log-uniform in [16, 256] along a golden-ratio sequence, the same for
// every seed, so that only the instances' geometry varies with the seed
// and not the mix of request sizes.
func coldBodies(seed uint64) [][]byte {
	return bodies(coldPool, rand.New(rand.NewPCG(seed, 0x636f6c64)), func(i int) int {
		_, u := math.Modf(float64(i) * 0.6180339887498949)
		return int(math.Round(16 * math.Pow(16, u)))
	})
}

// zipfBodies are cluster-zipf's request pool: numSinks in [16, 48].
func zipfBodies(seed uint64) [][]byte {
	rng := rand.New(rand.NewPCG(seed, 0x7a697066))
	return bodies(zipfKeys, rng, func(int) int { return 16 + rng.IntN(33) })
}

// listen serves h on a loopback port; stop returns once the server exited.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		hs.Serve(ln)
		close(done)
	}()
	return "http://" + ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-done
	}, nil
}

// deployment is the service under test: gcrd-default serve.Servers on
// loopback, more than one behind a cluster front tier.
type deployment struct {
	url      string
	servers  []*serve.Server
	front    *obs.Registry // nil without a front tier
	shutdown []func()
}

func (d *deployment) close() {
	for i := len(d.shutdown) - 1; i >= 0; i-- {
		d.shutdown[i]()
	}
}

// deploy starts the servers and the front tier and waits until /readyz
// answers 200.
func deploy(ctx context.Context, c *http.Client, shards int, tracer gatedclock.Tracer) (*deployment, error) {
	d := &deployment{}
	var urls []string
	for range shards {
		srv := serve.New(serve.Config{Tracer: tracer})
		url, stop, err := listen(srv.Handler())
		if err != nil {
			srv.Shutdown(ctx)
			d.close()
			return nil, err
		}
		d.servers = append(d.servers, srv)
		d.shutdown = append(d.shutdown, func() {
			stop()
			srv.Shutdown(context.Background())
		})
		urls = append(urls, url)
	}
	d.url = urls[0]
	if shards > 1 {
		d.front = obs.NewRegistry()
		// The default transport's settings, but a connection pool of this
		// deployment's own: set-up deploys again and again, and a pooled
		// connection to an earlier deployment's port would fail a probe.
		tp := http.DefaultTransport.(*http.Transport).Clone()
		d.shutdown = append(d.shutdown, tp.CloseIdleConnections)
		rt, err := cluster.New(cluster.Config{Shards: urls, Metrics: d.front, Transport: tp})
		if err != nil {
			d.close()
			return nil, err
		}
		rt.ProbeNow()
		url, stop, err := listen(rt.Handler())
		if err != nil {
			rt.Close()
			d.close()
			return nil, err
		}
		d.shutdown = append(d.shutdown, func() {
			stop()
			rt.Close()
		})
		d.url = url
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/readyz", nil)
		if err != nil {
			d.close()
			return nil, err
		}
		if resp, err := c.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if ctx.Err() != nil {
			d.close()
			return nil, fmt.Errorf("service never became ready: %w", ctx.Err())
		}
		time.Sleep(time.Millisecond)
	}
}

// setUpService deploys the service and builds the request bodies,
// repeatedly as setUp does, and keeps the last deployment.
func (r *run) setUpService(ctx context.Context, c *http.Client, shards int, build func() [][]byte) (*deployment, [][]byte, error) {
	var d *deployment
	var bodies [][]byte
	err := r.setUp(func() (func(), error) {
		var err error
		if d, err = deploy(ctx, c, shards, r.tr.tracer()); err != nil {
			return nil, err
		}
		bodies = build()
		return func() {
			d.close()
			c.CloseIdleConnections()
		}, nil
	})
	return d, bodies, err
}

// counters sums the named counters over the registries.
func counters(regs []*obs.Registry, names ...string) map[string]int64 {
	out := make(map[string]int64, len(names))
	for _, reg := range regs {
		snap := reg.Snapshot()
		for _, n := range names {
			out[n] += snap[n].Value
		}
	}
	return out
}

func (d *deployment) registries() []*obs.Registry {
	regs := make([]*obs.Registry, len(d.servers))
	for i, s := range d.servers {
		regs[i] = s.Metrics()
	}
	return regs
}

var serverCounters = []string{
	"serve_requests_total", "serve_cache_hits_total", "serve_cache_misses_total", "serve_shed_total",
	core.MetricPairEvals, core.MetricPairSkipped, core.MetricPairCached, core.MetricMemoStores,
	core.MetricIdxSearches, core.MetricIdxCands, core.MetricIdxRegions, core.MetricIdxRebuilds,
}

// serverLayers turns the servers' counter deltas into per-layer values.
func (r *run) serverLayers(before, after map[string]int64) {
	dl := func(n string) int64 { return after[n] - before[n] }
	if n := dl("serve_requests_total"); n > 0 {
		r.layer["serve.cache_hit_ratio"] = float64(dl("serve_cache_hits_total")) / float64(n)
	}
	r.layer["serve.shed"] = float64(dl("serve_shed_total"))
	r.routes = int(dl("serve_cache_misses_total"))
	r.stats.PairEvals = int(dl(core.MetricPairEvals))
	r.stats.PairEvalsSkipped = int(dl(core.MetricPairSkipped))
	r.stats.PairEvalsCached = int(dl(core.MetricPairCached))
	r.stats.PairMemoStores = int(dl(core.MetricMemoStores))
	r.stats.IndexSearches = int(dl(core.MetricIdxSearches))
	r.stats.IndexCandidates = int(dl(core.MetricIdxCands))
	r.stats.IndexRegionsVisited = int(dl(core.MetricIdxRegions))
	r.stats.IndexRebuilds = int(dl(core.MetricIdxRebuilds))
}

// httpClient holds at most conns connections to the service.
func httpClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
}

// reply is the part of an answer the benchmark checks.
type reply struct {
	status int
	tree   string
	source string // X-Cluster-Source, empty from a single server
}

// post sends one request and returns the reply's status and source, and
// its body for decode.
func post(ctx context.Context, c *http.Client, url string, body []byte) (reply, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/route", bytes.NewReader(body))
	if err != nil {
		return reply{}, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, nil, err
	}
	return reply{status: resp.StatusCode, source: resp.Header.Get("X-Cluster-Source")}, data, nil
}

// decode fills in the tree digest of a 200 answer.
func (rep *reply) decode(data []byte) error {
	if rep.status != http.StatusOK {
		return nil
	}
	var ans struct {
		TreeDigest string `json:"treeDigest"`
	}
	if err := json.Unmarshal(data, &ans); err != nil {
		return err
	}
	rep.tree = ans.TreeDigest
	return nil
}

// tally checks replies as the clients receive them: status 200, the same
// tree digest for every reply to one body, and the pinned digest at the
// default seed. Timed replies count as operations.
type tally struct {
	r    *run
	pins map[string]string

	mu    sync.Mutex
	trees map[int]string // body index → tree digest
}

func (t *tally) add(key int, rep reply, err error, timed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.r
	if timed {
		r.res.Attempted++
	}
	if err != nil || rep.status != http.StatusOK {
		if timed {
			r.res.Failed++
		}
		r.problem("request %d: status %d, %v", key, rep.status, err)
		return
	}
	if prev, ok := t.trees[key]; ok && prev != rep.tree {
		r.problem("request %d: tree digest %s, earlier %s", key, rep.tree, prev)
	}
	t.trees[key] = rep.tree
	if want := t.pins[strconv.Itoa(key)]; t.pins != nil && (want == "" || !strings.HasPrefix(rep.tree, want)) {
		r.problem("request %d: tree digest %s, pinned %q", key, rep.tree, want)
	}
}

func (r *run) newTally(workload string) (*tally, error) {
	t := &tally{r: r, trees: map[int]string{}}
	if r.pinned() {
		var err error
		if t.pins, err = loadPins(workload); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// request sends bodies[key] as a traced client request and checks the
// reply; it returns the reply's source. The round trip is the program's
// (client.request); decoding and checking the answer are the benchmark's
// own (perf.check).
func (r *run) request(ctx context.Context, c *http.Client, url string, bodies [][]byte, key int, req int64, t *tally, timed bool) string {
	var rep reply
	r.tr.layer("perf.op", 0, req, func(id int64) error {
		var data []byte
		var err error
		r.tr.layer("client.request", id, req, func(int64) error {
			rep, data, err = post(ctx, c, url, bodies[key])
			return nil
		})
		return r.tr.layer("perf.check", id, req, func(int64) error {
			if err == nil {
				err = rep.decode(data)
			}
			t.add(key, rep, err, timed)
			return nil
		})
	})
	return rep.source
}

// spotCheck re-routes a few answered bodies in-process with the verifier
// on and compares the trees with the service's answers: a correctness
// check that holds under any seed.
func (r *run) spotCheck(ctx context.Context, bodies [][]byte, t *tally) {
	keys := make([]int, 0, len(t.trees))
	for k := range t.trees {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys[:min(spotChecks, len(keys))] {
		got, err := localRoute(ctx, bodies[k])
		switch {
		case err != nil:
			r.problem("request %d: local re-route: %v", k, err)
		case got != t.trees[k]:
			r.problem("request %d: served tree %s, local re-route %s", k, t.trees[k], got)
		}
	}
}

// localRoute routes a request body in this process as a serve worker
// does, with the verifier on, and returns the tree digest.
func localRoute(ctx context.Context, body []byte) (string, error) {
	req, err := serve.DecodeRouteRequest(body)
	if err != nil {
		return "", err
	}
	rr, err := req.Resolve()
	if err != nil {
		return "", err
	}
	b, err := bench.Generate(rr.Cfg)
	if err != nil {
		return "", err
	}
	d, err := gatedclock.NewDesign(b)
	if err != nil {
		return "", err
	}
	opts := rr.Opts
	opts.Verify = true
	opts.Workers = 1
	res, err := d.RouteContext(ctx, opts)
	if err != nil {
		return "", err
	}
	return res.Tree.Digest(), nil
}

// serveCold drives one gcrd-default server with an open loop at a fixed
// rate through the pool of distinct bodies, so each request misses the
// cache and routes.
// Latency runs from each request's scheduled send time. The arrivals are
// evenly spaced rather than Poisson: with the request sizes also fixed,
// queueing then repeats from seed to seed, and only the instances change.
func serveCold(ctx context.Context, r *run) error {
	r.enclosing = serveEnclosing
	n := max(1, int(coldRate*r.cfg.Seconds))
	senders := runtime.NumCPU()
	c := httpClient(senders)
	d, bodies, err := r.setUpService(ctx, c, 1, func() [][]byte { return coldBodies(r.cfg.Seed) })
	if err != nil {
		return err
	}
	defer d.close()
	t, err := r.newTally("serve-cold")
	if err != nil {
		return err
	}
	before := counters(d.registries(), serverCounters...)
	r.beginMeasure()
	lats := make([]time.Duration, n)
	lags := make([]time.Duration, n)
	var next atomic.Int64
	t0 := time.Now()
	fanout(senders, func(int) {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			when := t0.Add(time.Duration(float64(i) / coldRate * float64(time.Second)))
			time.Sleep(time.Until(when))
			lags[i] = time.Since(when)
			r.request(ctx, c, d.url, bodies, i%coldPool, int64(i+1), t, true)
			lats[i] = time.Since(when)
		}
	})
	elapsed := time.Since(t0)
	r.endMeasure()
	r.serverLayers(before, counters(d.registries(), serverCounters...))
	r.ops = lats
	r.slot = make([]int, n)
	for i := range r.slot {
		r.slot[i] = int(float64(i) / coldRate) // the second request i was due in
	}

	late := 0
	for _, l := range lags {
		if l > lateSendLag {
			late++
		}
	}
	r.layer["perf.late_sends"] = float64(late)
	if hit := r.layer["serve.cache_hit_ratio"]; hit != 0 {
		r.problem("serve-cold hit the cache (ratio %v): its requests must all be distinct", hit)
	}
	hist := d.servers[0].Metrics().Histogram
	queue, route := hist("serve_queue_wait_ms", "", nil), hist("serve_route_ms", "", nil)
	lagMs := millis(lags)
	r.res.Details["gen_lag_p99_ms"] = quantile(lagMs, tailQ(len(lagMs)))
	r.res.Details["rate_rps"] = coldRate
	r.res.Details["completed_rps"] = float64(n) / elapsed.Seconds()
	r.res.Details["serve.queue_wait_p50_ms"] = queue.Quantile(0.5)
	r.res.Details["serve.queue_wait_p99_ms"] = queue.Quantile(0.99)
	r.res.Details["serve.route_p50_ms"] = route.Quantile(0.5)
	r.res.Details["serve.route_p99_ms"] = route.Quantile(0.99)
	r.res.Details["serve.route_mean_ms"] = route.Sum() / float64(route.Count())
	r.spotCheck(ctx, bodies, t)
	return nil
}

// clusterZipf drives a front tier over two shards with a closed loop:
// each client sends its next request when the last one answers, keys
// drawn Zipf(1.1) over the pool. The first requests warm the caches
// untimed; then every client runs for the run's seconds.
func clusterZipf(ctx context.Context, r *run) error {
	r.enclosing = serveEnclosing
	clients := runtime.NumCPU()
	c := httpClient(clients)
	d, bodies, err := r.setUpService(ctx, c, 2, func() [][]byte { return zipfBodies(r.cfg.Seed) })
	if err != nil {
		return err
	}
	defer d.close()
	t, err := r.newTally("cluster-zipf")
	if err != nil {
		return err
	}
	keys := make([]*rand.Zipf, clients)
	for i := range keys {
		keys[i] = rand.NewZipf(rand.New(rand.NewPCG(r.cfg.Seed, uint64(i)+0x636c75)), 1.1, 1, zipfKeys-1)
	}
	warm := zipfWarmup
	if r.cfg.Short {
		warm = 20
	}
	var sent atomic.Int64
	fanout(clients, func(i int) {
		for sent.Add(1) <= int64(warm) {
			r.request(ctx, c, d.url, bodies, int(keys[i].Uint64()), 0, t, false)
		}
	})
	if r.tr != nil {
		r.tr.reset() // the measured section alone
	}

	frontNames := []string{"cluster_requests_total", "cluster_l1_hits_total", "cluster_l2_hits_total",
		"cluster_peer_hits_total", "cluster_forwards_total", "cluster_failovers_total"}
	front0 := counters([]*obs.Registry{d.front}, frontNames...)
	before := counters(d.registries(), serverCounters...)
	// Each client records its samples into room set aside before the clock
	// starts, its answers' sources as small indices and the second each
	// request started in as a slot: growing the records by copying would
	// put garbage that scales with throughput, and so with host speed, into
	// the peak RSS the run reports.
	const room = 1 << 17
	lats := make([][]time.Duration, clients)
	srcs := make([][]uint8, clients)
	slots := make([][]uint16, clients)
	for i := range lats {
		lats[i] = make([]time.Duration, 0, room)
		srcs[i] = make([]uint8, 0, room)
		slots[i] = make([]uint16, 0, room)
	}
	r.beginMeasure()
	deadline := time.Now().Add(time.Duration(r.cfg.Seconds * float64(time.Second)))
	t0 := time.Now()
	var reqID atomic.Int64
	fanout(clients, func(i int) {
		for time.Now().Before(deadline) {
			start := time.Now()
			src := r.request(ctx, c, d.url, bodies, int(keys[i].Uint64()), reqID.Add(1), t, true)
			lats[i] = append(lats[i], time.Since(start))
			srcs[i] = append(srcs[i], sourceIndex(src))
			slots[i] = append(slots[i], uint16(start.Sub(t0)/time.Second))
		}
	})
	elapsed := time.Since(t0)
	r.endMeasure()
	r.serverLayers(before, counters(d.registries(), serverCounters...))
	front1 := counters([]*obs.Registry{d.front}, frontNames...)
	df := func(n string) float64 { return float64(front1[n] - front0[n]) }
	if reqs := df("cluster_requests_total"); reqs > 0 {
		r.layer["cluster.l1_hit_ratio"] = df("cluster_l1_hits_total") / reqs
		r.layer["cluster.l2_hit_ratio"] = df("cluster_l2_hits_total") / reqs
		r.layer["cluster.forward_ratio"] = df("cluster_forwards_total") / reqs
	}
	r.layer["cluster.peer_hits"] = df("cluster_peer_hits_total")
	r.layer["cluster.failovers"] = df("cluster_failovers_total")

	bySource := map[string][]float64{}
	for i := range lats {
		r.ops = append(r.ops, lats[i]...)
		for j, src := range srcs[i] {
			bySource[sources[src]] = append(bySource[sources[src]], ms(lats[i][j]))
			r.slot = append(r.slot, int(slots[i][j]))
		}
	}
	r.res.Details["throughput_rps"] = float64(len(r.ops)) / elapsed.Seconds()
	for src, lat := range bySource {
		r.res.Details[src+".count"] = float64(len(lat))
		r.res.Details[src+".p50_ms"] = median(lat)
		r.res.Details[src+".tail_ms"] = quantile(lat, tailQ(len(lat)))
	}
	r.spotCheck(ctx, bodies, t)
	return nil
}

// sources are the front tier's X-Cluster-Source values; an answer with
// any other is counted as "other".
var sources = []string{"l1", "l2", "peer", "shard", "other"}

func sourceIndex(src string) uint8 {
	if i := slices.Index(sources, src); i >= 0 {
		return uint8(i)
	}
	return uint8(len(sources) - 1)
}

// fanout runs fn(0) … fn(n-1) concurrently and waits for all of them.
func fanout(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}
