package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync/atomic"

	"repro/internal/serve"
)

// shardState is the front tier's view of one shard's lifecycle. It is fed
// by two signals with different latencies: transport failures on the
// forwarding path demote a shard to down immediately (a failed request is
// the freshest health sample there is), while the background /readyz
// prober promotes it back through warming to ready — the hand-back path
// after a restart.
type shardState int32

const (
	// shardDown: unreachable or answering garbage; excluded from routing.
	shardDown shardState = iota
	// shardWarming: alive and accepting work, but its snapshot load has not
	// finished — selectable for routing (it computes correctly, just cold),
	// not "ready" for the cluster readiness aggregate, and a signal that
	// peer fetch should cover for its still-empty cache.
	shardWarming
	// shardReady: fully up, cache restored.
	shardReady
	// shardDraining: shutting down gracefully; it answers in-flight work
	// but refuses new submissions, so the router stops selecting it.
	shardDraining
)

func (s shardState) String() string {
	switch s {
	case shardWarming:
		return "warming"
	case shardReady:
		return "ready"
	case shardDraining:
		return "draining"
	default:
		return "down"
	}
}

// shard is one routing backend: its forward client, a plain client for
// the cheap GET paths (peek, probe), and the atomic state.
type shard struct {
	name   string // host:port, the stable identity in headers and reports
	base   string // full base URL
	client *serve.Client
	plain  *http.Client
	state  atomic.Int32
}

func (s *shard) getState() shardState  { return shardState(s.state.Load()) }
func (s *shard) setState(v shardState) { s.state.Store(int32(v)) }

// selectable reports whether the router may send work here. Warming
// shards are selectable — they route correctly, only their cache is cold,
// and peer fetch compensates for that.
func (s *shard) selectable() bool {
	st := s.getState()
	return st == shardWarming || st == shardReady
}

func (s *shard) ready() bool { return s.getState() == shardReady }

// probeOnce samples the shard's /readyz and maps the answer onto
// shardState. The JSON body's status field is authoritative (readyz
// answers 503 for both warming and draining, which the state machine must
// distinguish); a transport error or unparseable body means down.
func (s *shard) probeOnce(ctx context.Context) shardState {
	pctx, cancel := context.WithTimeout(ctx, peekTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, s.base+"/readyz", nil)
	if err != nil {
		return shardDown
	}
	resp, err := s.plain.Do(req)
	if err != nil {
		return shardDown
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return shardDown
	}
	var body struct {
		Status string `json:"status"`
	}
	if json.Unmarshal(data, &body) != nil {
		return shardDown
	}
	switch body.Status {
	case "ready":
		return shardReady
	case "warming":
		return shardWarming
	case "draining":
		return shardDraining
	default:
		return shardDown
	}
}

// peek asks the shard's cache for a result by digest — GET /v1/cache/…,
// the peer-fetch read path. Only a well-formed 200 counts; every other
// outcome (404 miss, refusal, transport error) is a nil, and is never a
// health signal: a miss is normal, and the forward path owns demotion.
func (s *shard) peek(ctx context.Context, digest string) *serve.RouteResult {
	pctx, cancel := context.WithTimeout(ctx, peekTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, s.base+"/v1/cache/"+digest, nil)
	if err != nil {
		return nil
	}
	resp, err := s.plain.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	var res serve.RouteResult
	if json.Unmarshal(data, &res) != nil || res.TreeDigest == "" {
		return nil
	}
	return &res
}
