// Package serve exposes the gated-clock router as a long-lived concurrent
// service: an HTTP JSON API backed by a fixed worker pool, a bounded
// admission queue with explicit backpressure and load shedding, a
// singleflight coalescer that deduplicates concurrently in-flight identical
// requests, and a SIEVE result cache. Requests are keyed by a canonical
// SHA-256 digest covering the benchmark (or synthesis config), the
// instruction stream, the technology parameters and every result-affecting
// routing option, so repeated identical work — the k-controller sweeps of
// the paper's §6, iterative synthesis flows — is answered from the cache
// without re-routing.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	gatedclock "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/stream"
	"repro/internal/tech"
)

// Typed failures of the service layer; the HTTP layer maps them (and the
// library's own sentinels) to status codes with errors.Is.
var (
	// ErrBadRequest wraps every malformed-request failure: JSON syntax,
	// unknown fields, contradictory or out-of-range parameters. → 400.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrOverloaded is returned when the admission queue is full, or when
	// a background request arrives above the load-shedding watermark. The
	// HTTP layer answers 429 with a Retry-After hint. → 429.
	ErrOverloaded = errors.New("serve: overloaded, retry later")
	// ErrDraining is returned for new work while the server is shutting
	// down; in-flight work still completes. → 503.
	ErrDraining = errors.New("serve: draining, not accepting new work")
	// ErrPanic wraps a panic recovered inside a routing execution, a batch
	// item, or a handler: the poisoned request degrades to one typed 500
	// instead of taking the process down. → 500, kind "panic".
	ErrPanic = errors.New("serve: recovered panic")
)

// RouteRequest is the JSON body of POST /v1/route. Exactly one of
// Benchmark (a standard r1–r5 name) or Config (a synthesis configuration)
// selects the instance; everything else is optional with documented
// defaults. Field order, whitespace, and explicit-vs-implicit defaults
// never change the request's canonical digest.
type RouteRequest struct {
	// Benchmark names a standard instance (r1..r5).
	Benchmark string `json:"benchmark,omitempty"`
	// Config synthesizes an instance instead (mutually exclusive with
	// Benchmark).
	Config *BenchConfig `json:"config,omitempty"`
	// Stream, when present, replaces the benchmark's generated instruction
	// stream with an explicit per-cycle trace (validated against the ISA).
	Stream []int `json:"stream,omitempty"`

	// Mode selects the clock style: bare|buffered|gated|gated-red
	// (default gated-red, the paper's recommended configuration).
	Mode string `json:"mode,omitempty"`
	// Controllers is the number of distributed gate controllers (power of
	// two, default 1 = centralized).
	Controllers int `json:"controllers,omitempty"`
	// SkewBoundPs relaxes exact zero skew to a budget (default 0 = exact).
	SkewBoundPs float64 `json:"skewBoundPs,omitempty"`
	// SizeDrivers enables drive-strength selection for gates/buffers.
	SizeDrivers bool `json:"sizeDrivers,omitempty"`
	// BufferCap overrides the ungated-edge buffer-insertion threshold (fF).
	BufferCap float64 `json:"bufferCap,omitempty"`
	// Tech overrides the full technology parameter set (default
	// tech.Default()).
	Tech *tech.Params `json:"tech,omitempty"`

	// TimeoutMs caps this request's routing deadline; the server clamps it
	// to its own maximum. Excluded from the digest — it cannot change the
	// result, only whether one is produced.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// Background marks the request as shed-first: above the server's
	// load-shedding watermark background requests are refused with 429
	// while interactive ones still queue. Excluded from the digest.
	Background bool `json:"background,omitempty"`
}

// BenchConfig mirrors bench.Config for the wire: a deterministic synthesis
// recipe. Zero fields take the library defaults (bench.Config.WithDefaults),
// and the digest is computed over the resolved form, so {"numSinks":267,
// "seed":101,...} spelled out fully and the equivalent defaults-elided
// config key the same cache entry.
type BenchConfig struct {
	Name      string  `json:"name,omitempty"`
	NumSinks  int     `json:"numSinks"`
	Seed      uint64  `json:"seed,omitempty"`
	DieSide   float64 `json:"dieSide,omitempty"`
	Placement string  `json:"placement,omitempty"` // uniform|clustered|hotspot|ring
	MinLoad   float64 `json:"minLoad,omitempty"`
	MaxLoad   float64 `json:"maxLoad,omitempty"`
	NumInstr  int     `json:"numInstr,omitempty"`
	Usage     float64 `json:"usage,omitempty"`
	Scatter   float64 `json:"scatter,omitempty"`
	Stay      float64 `json:"stay,omitempty"` // Markov stay probability
	Step      float64 `json:"step,omitempty"` // Markov neighbour-step probability
	StreamLen int     `json:"streamLen,omitempty"`
}

func (c *BenchConfig) toBench() bench.Config {
	return bench.Config{
		Name:      c.Name,
		NumSinks:  c.NumSinks,
		Seed:      c.Seed,
		DieSide:   c.DieSide,
		Placement: bench.Placement(c.Placement),
		MinLoad:   c.MinLoad,
		MaxLoad:   c.MaxLoad,
		NumInstr:  c.NumInstr,
		Usage:     c.Usage,
		Scatter:   c.Scatter,
		Model:     stream.Markov{Stay: c.Stay, Step: c.Step},
		StreamLen: c.StreamLen,
	}
}

// DecodeRouteRequest parses a request body strictly: unknown fields and
// trailing garbage are rejected (wrapping ErrBadRequest), so a typo like
// "controlers" fails loudly instead of silently routing with the default.
func DecodeRouteRequest(data []byte) (*RouteRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req RouteRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after request object", ErrBadRequest)
	}
	return &req, nil
}

// validModes mirrors the option constructors in buildOptions.
var validModes = map[string]bool{"bare": true, "buffered": true, "gated": true, "gated-red": true}

// Resolved is the canonical form of a request: the fully defaulted
// synthesis config, the effective routing options, and the digest-excluded
// scheduling hints. Digest is computed over this form only.
type Resolved struct {
	Cfg         bench.Config  // canonical: WithDefaults applied
	Stream      stream.Stream // nil unless explicitly overridden
	Mode        string
	Controllers int
	Opts        core.Options // Tech resolved; Controller left nil (die-dependent)

	// Scheduling hints, excluded from the digest.
	Timeout    time.Duration // 0 = server default
	Background bool
}

// Resolve validates the request and normalizes it to canonical form.
// Every failure wraps ErrBadRequest.
func (r *RouteRequest) Resolve() (*Resolved, error) {
	switch {
	case r.Benchmark == "" && r.Config == nil:
		return nil, fmt.Errorf("%w: need benchmark or config", ErrBadRequest)
	case r.Benchmark != "" && r.Config != nil:
		return nil, fmt.Errorf("%w: benchmark %q and config are mutually exclusive", ErrBadRequest, r.Benchmark)
	}
	var cfg bench.Config
	if r.Benchmark != "" {
		std, err := bench.Standard(r.Benchmark)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
		cfg = std
	} else {
		cfg = r.Config.toBench()
		if cfg.NumSinks <= 0 || cfg.NumSinks > bench.MaxSinks {
			return nil, fmt.Errorf("%w: numSinks %d outside [1, %d]", ErrBadRequest, cfg.NumSinks, bench.MaxSinks)
		}
		if err := cfg.Model.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
		if cfg.Placement != "" {
			known := false
			for _, p := range bench.Placements() {
				if p == cfg.Placement {
					known = true
					break
				}
			}
			if !known {
				return nil, fmt.Errorf("%w: unknown placement %q (want uniform|clustered|hotspot|ring)",
					ErrBadRequest, cfg.Placement)
			}
		}
	}
	cfg = cfg.WithDefaults()

	mode := r.Mode
	if mode == "" {
		mode = "gated-red"
	}
	if !validModes[mode] {
		return nil, fmt.Errorf("%w: unknown mode %q (want bare|buffered|gated|gated-red)", ErrBadRequest, mode)
	}
	k := r.Controllers
	if k == 0 {
		k = 1
	}
	if k < 1 || k&(k-1) != 0 {
		return nil, fmt.Errorf("%w: controllers %d must be a power of two >= 1", ErrBadRequest, k)
	}
	if !(r.SkewBoundPs >= 0) || math.IsInf(r.SkewBoundPs, 1) {
		return nil, fmt.Errorf("%w: bad skew bound %v", ErrBadRequest, r.SkewBoundPs)
	}
	if math.IsNaN(r.BufferCap) {
		return nil, fmt.Errorf("%w: NaN bufferCap", ErrBadRequest)
	}
	if r.TimeoutMs < 0 {
		return nil, fmt.Errorf("%w: negative timeoutMs %d", ErrBadRequest, r.TimeoutMs)
	}
	if len(r.Stream) > stream.MaxLen {
		return nil, fmt.Errorf("%w: stream of %d cycles exceeds limit %d", ErrBadRequest, len(r.Stream), stream.MaxLen)
	}
	for t, in := range r.Stream {
		if in < 0 || in >= cfg.NumInstr {
			return nil, fmt.Errorf("%w: stream cycle %d has out-of-range instruction %d (ISA has %d)",
				ErrBadRequest, t, in, cfg.NumInstr)
		}
	}

	opts := buildOptions(mode)
	opts.SkewBoundPs = r.SkewBoundPs
	opts.SizeDrivers = r.SizeDrivers
	opts.BufferCap = r.BufferCap
	if r.Tech != nil {
		opts.Tech = *r.Tech
	}
	if err := opts.Tech.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}

	var sv stream.Stream
	if r.Stream != nil {
		sv = append(stream.Stream(nil), r.Stream...)
	}
	return &Resolved{
		Cfg:         cfg,
		Stream:      sv,
		Mode:        mode,
		Controllers: k,
		Opts:        opts,
		Timeout:     time.Duration(r.TimeoutMs) * time.Millisecond,
		Background:  r.Background,
	}, nil
}

// buildOptions maps a mode name to the library's option constructors.
func buildOptions(mode string) gatedclock.Options {
	switch mode {
	case "bare":
		return gatedclock.BareOptions()
	case "buffered":
		return gatedclock.BufferedOptions()
	case "gated":
		return gatedclock.GatedOptions()
	default:
		return gatedclock.GatedReducedOptions()
	}
}

// digestVersion tags the canonical request encoding; bump on any change to
// the digested field set so old cache keys cannot alias new requests.
// v2: sink placement joined the synthesis config.
const digestVersion = 2

// Digest returns the canonical SHA-256 request key, hex-encoded. It covers
// the resolved synthesis config (benchmark geometry, ISA and stream
// generation are deterministic functions of it), any explicit stream
// override, the clock style, the controller count, and the routing-option
// fingerprint (method, drivers, skew bound, sizing, full technology
// parameter set — see core.Options.Fingerprint). Scheduling hints
// (timeout, background) and observability knobs are excluded: they cannot
// change the routed tree.
func (rr *Resolved) Digest() string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	i := func(v int) { u64(uint64(int64(v))) }
	f := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) {
		i(len(s))
		io.WriteString(h, s)
	}

	i(digestVersion)
	c := rr.Cfg
	// Name is a label, not an input to generation — the serpentine
	// placement, ISA and stream depend only on the numeric fields — but it
	// is part of the canonical identity the standard table pins, so it is
	// digested too (bench.Standard("r1") and an identical anonymous config
	// differ only by label and intent).
	str(c.Name)
	i(c.NumSinks)
	u64(c.Seed)
	f(c.DieSide)
	str(string(c.Placement)) // canonical: WithDefaults maps "" to uniform
	f(c.MinLoad)
	f(c.MaxLoad)
	i(c.NumInstr)
	f(c.Usage)
	f(c.Scatter)
	f(c.Model.Stay)
	f(c.Model.Step)
	i(c.StreamLen)

	if rr.Stream == nil {
		i(-1)
	} else {
		i(len(rr.Stream))
		for _, in := range rr.Stream {
			i(in)
		}
	}

	str(rr.Mode) // pins the gate policy (All{} vs default reduction vs none)
	i(rr.Controllers)
	rr.Opts.Fingerprint(h)
	return hex.EncodeToString(h.Sum(nil))
}

// materializeController builds the effective controller for the resolved
// request over the benchmark's die.
func (rr *Resolved) materializeController(b *bench.Benchmark) (*ctrl.Controller, error) {
	if rr.Controllers > 1 {
		return ctrl.Distributed(b.Die, rr.Controllers)
	}
	return ctrl.Centralized(b.Die), nil
}
