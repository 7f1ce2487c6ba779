package obs

import (
	"fmt"
	"io"
	"maps"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind is the instrument type of a registry entry.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Counter is a monotonically increasing count. Updates are single atomic
// adds; the nil receiver is a no-op so optional instruments need no guard.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-written int64 value. Updates are single atomic stores.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v is larger than the current value.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets (upper bounds, with an
// implicit +Inf overflow bucket) and tracks the running sum and count.
// Observe performs two atomic adds and one atomic CAS loop for the sum —
// no locks.
type Histogram struct {
	bounds []float64      // sorted upper bounds, one bucket each
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observed
// distribution from the bucket counts, interpolating linearly inside the
// bucket containing the quantile rank. The overflow (+Inf) bucket has no
// upper bound to interpolate toward, so ranks landing there return the
// last finite bound — an underestimate flagged to the caller only by being
// exactly that bound. Returns 0 when nothing has been observed. The
// estimate is what backs the serve daemon's Retry-After hint and the
// p50/p99 lines of loadclient's -json summary.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c) >= rank {
			if i >= len(h.bounds) {
				// Overflow bucket: no finite upper edge.
				if len(h.bounds) == 0 {
					return 0
				}
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// ExpBuckets returns n exponentially spaced histogram bounds starting at
// start and growing by factor: start, start·factor, start·factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry is a named set of instruments. Registration (get-or-create)
// takes the registry lock; every instrument update after that is lock-free
// atomics, which is what keeps a shared registry cheap on the hot path.
type Registry struct {
	mu    sync.Mutex
	kinds map[string]Kind
	ctrs  map[string]*Counter
	gaus  map[string]*Gauge
	hists map[string]*Histogram
	help  map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds: map[string]Kind{},
		ctrs:  map[string]*Counter{},
		gaus:  map[string]*Gauge{},
		hists: map[string]*Histogram{},
		help:  map[string]string{},
	}
}

// checkKind records name's kind on first registration and panics on a
// conflicting re-registration — a programmer error.
func (r *Registry) checkKind(name string, k Kind, help string) {
	if prev, ok := r.kinds[name]; ok {
		if prev != k {
			panic(fmt.Sprintf("obs: instrument %q re-registered as %v, was %v", name, k, prev))
		}
		return
	}
	r.kinds[name] = k
	r.help[name] = help
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, KindCounter, help)
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, KindGauge, help)
	g, ok := r.gaus[name]
	if !ok {
		g = &Gauge{}
		r.gaus[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use (later calls reuse the original
// bounds).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, KindHistogram, help)
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Int64, len(h.bounds)+1)
		r.hists[name] = h
	}
	return h
}

// BucketCount is one histogram bucket in a snapshot: the count of
// observations at or below the upper bound (Le is +Inf for the overflow
// bucket).
type BucketCount struct {
	Le    float64
	Count int64
}

// InstrumentSnapshot is the point-in-time state of one instrument.
type InstrumentSnapshot struct {
	Kind    Kind
	Value   int64         // counter, gauge
	Count   int64         // histogram
	Sum     float64       // histogram
	Buckets []BucketCount // histogram
}

// Snapshot is a consistent-enough in-process copy of a registry (each
// instrument is read atomically; the set is read under the registry lock).
type Snapshot map[string]InstrumentSnapshot

// Snapshot captures every registered instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Snapshot, len(r.kinds))
	for name, kind := range r.kinds {
		s := InstrumentSnapshot{Kind: kind}
		switch kind {
		case KindCounter:
			s.Value = r.ctrs[name].Value()
		case KindGauge:
			s.Value = r.gaus[name].Value()
		case KindHistogram:
			h := r.hists[name]
			s.Count = h.Count()
			s.Sum = h.Sum()
			s.Buckets = make([]BucketCount, len(h.counts))
			for i := range h.counts {
				le := math.Inf(1)
				if i < len(h.bounds) {
					le = h.bounds[i]
				}
				s.Buckets[i] = BucketCount{Le: le, Count: h.counts[i].Load()}
			}
		}
		out[name] = s
	}
	return out
}

// WriteProm writes the registry in the Prometheus text exposition format:
// a # HELP and # TYPE line per instrument, histograms expanded into
// cumulative _bucket{le="…"} series plus _sum and _count. Instruments are
// emitted in sorted name order so dumps are diffable.
func (r *Registry) WriteProm(w io.Writer) error {
	snap := r.Snapshot()
	r.mu.Lock()
	help := maps.Clone(r.help)
	r.mu.Unlock()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := snap[name]
		if h := help[name]; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, h); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, s.Kind); err != nil {
			return err
		}
		var err error
		switch s.Kind {
		case KindCounter, KindGauge:
			_, err = fmt.Fprintf(w, "%s %d\n", name, s.Value)
		case KindHistogram:
			cum := int64(0)
			for _, b := range s.Buckets {
				cum += b.Count
				le := "+Inf"
				if !math.IsInf(b.Le, 1) {
					le = fmt.Sprintf("%g", b.Le)
				}
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s_sum %g\n", name, s.Sum); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
