package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
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

// MarshalText writes the kind by name, so a snapshot's wire form reads
// "kind":"counter".
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText inverts MarshalText, so a snapshot fetched over HTTP (a
// shard's /metrics.json) merges by typed kind exactly like a locally
// captured one; an unknown name fails the decode.
func (k *Kind) UnmarshalText(text []byte) error {
	switch string(text) {
	case "counter":
		*k = KindCounter
	case "gauge":
		*k = KindGauge
	case "histogram":
		*k = KindHistogram
	default:
		return fmt.Errorf("obs: snapshot instrument has unknown kind %q", text)
	}
	return nil
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
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// bucketWire is the JSON form of a bucket: the bound travels as a string
// because the overflow bucket's +Inf is not a JSON number (and "+Inf" is
// the Prometheus spelling anyway).
type bucketWire struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// MarshalJSON encodes the bound as a string, "+Inf" for the overflow
// bucket — without this the JSON encoding of any histogram-bearing
// snapshot would fail outright on the unencodable infinity.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.Le, 1) {
		le = strconv.FormatFloat(b.Le, 'g', -1, 64)
	}
	return json.Marshal(bucketWire{Le: le, Count: b.Count})
}

// UnmarshalJSON inverts MarshalJSON exactly: strconv's 'g'/-1 round trip
// is lossless, so a decoded snapshot merges bit-identically to the local
// one it was captured from.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var w bucketWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Le == "+Inf" {
		b.Le = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(w.Le, 64)
		if err != nil {
			return fmt.Errorf("obs: bucket bound %q: %w", w.Le, err)
		}
		b.Le = v
	}
	b.Count = w.Count
	return nil
}

// InstrumentSnapshot is the point-in-time state of one instrument.
type InstrumentSnapshot struct {
	Kind    Kind          `json:"kind"`
	Value   int64         `json:"value,omitempty"`   // counter, gauge
	Count   int64         `json:"count,omitempty"`   // histogram
	Sum     float64       `json:"sum,omitempty"`     // histogram
	Buckets []BucketCount `json:"buckets,omitempty"` // histogram
}

// Snapshot is a consistent-enough copy of a registry (each instrument is
// read atomically; the set is read under the registry lock), mergeable
// across workers with Merge.
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

// Merge folds other into s: counters and histogram buckets are summed,
// gauges take the maximum (the useful aggregate for depth/size gauges).
// Instruments missing from s are copied over.
//
// Every aggregate is integer arithmetic except the histogram Sum, whose
// floating-point addition is order-sensitive in the last ulp — use
// MergeAll when byte-identical output across input permutations matters.
func (s Snapshot) Merge(other Snapshot) {
	for name, o := range other {
		cur, ok := s[name]
		if !ok {
			if o.Buckets != nil {
				o.Buckets = append([]BucketCount(nil), o.Buckets...)
			}
			s[name] = o
			continue
		}
		switch cur.Kind {
		case KindCounter:
			cur.Value += o.Value
		case KindGauge:
			if o.Value > cur.Value {
				cur.Value = o.Value
			}
		case KindHistogram:
			cur.Count += o.Count
			cur.Sum += o.Sum
			for i := range cur.Buckets {
				if i < len(o.Buckets) {
					cur.Buckets[i].Count += o.Buckets[i].Count
				}
			}
		}
		s[name] = cur
	}
}

// MergeAll merges any number of snapshots into a fresh one,
// order-independently: the integer aggregates (counters, gauges, bucket
// counts) are commutative already, and the one float aggregate — the
// histogram Sum — is summed in sorted value order, so every permutation of
// the inputs produces a bit-identical result. This is the aggregation
// behind the cluster front tier's merged /metrics: scraping shards in
// whatever order they answer must not change the exposition.
func MergeAll(snaps ...Snapshot) Snapshot {
	out := Snapshot{}
	sums := map[string][]float64{}
	for _, s := range snaps {
		for name, is := range s {
			if is.Kind == KindHistogram {
				sums[name] = append(sums[name], is.Sum)
			}
		}
		out.Merge(s)
	}
	for name, vs := range sums {
		sort.Float64s(vs)
		total := 0.0
		for _, v := range vs {
			total += v
		}
		is := out[name]
		is.Sum = total
		out[name] = is
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
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()
	return writeSnapshotProm(w, snap, help)
}

// WriteProm writes the snapshot in the Prometheus text exposition format
// (no # HELP lines — a snapshot does not carry help text). The output is a
// pure sorted function of the snapshot's contents, which is what makes the
// cluster front tier's aggregated /metrics deterministic: merging per-shard
// snapshots in any order writes byte-identical expositions.
func (s Snapshot) WriteProm(w io.Writer) error {
	return writeSnapshotProm(w, s, nil)
}

func writeSnapshotProm(w io.Writer, snap Snapshot, help map[string]string) error {
	for _, name := range sortedKeys(snap) {
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
