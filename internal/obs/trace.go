package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanKind discriminates the two span shapes the router emits.
type SpanKind uint8

const (
	// SpanPhase covers one construction phase (init, greedy, embed) of a
	// routing run.
	SpanPhase SpanKind = iota
	// SpanMerge covers one bottom-up merge of the greedy loop.
	SpanMerge
)

func (k SpanKind) String() string {
	switch k {
	case SpanPhase:
		return "phase"
	case SpanMerge:
		return "merge"
	}
	return fmt.Sprintf("SpanKind(%d)", uint8(k))
}

// Span is one completed unit of work. It is passed by value so that
// emitting a span never allocates on the emitter's side; whatever the
// Tracer implementation does with it is the enabled path's own cost.
//
// Phase spans fill Kind, Name, Start and Dur. Merge spans additionally
// carry the merge index (1-based), the IDs of the merged pair (A, B) and
// of the new node (K), the Equation-3 cost the pair was selected at, the
// snaking flag, and the candidate-lookup deltas since the previous merge
// (pairs fully evaluated, served from the memo, pruned by the lower
// bound). HeapDepth is the lazy-deletion heap length after the merge, −1
// on the reference path, which has no heap.
type Span struct {
	Kind  SpanKind
	Name  string
	Start time.Time
	Dur   time.Duration

	Merge   int
	A, B, K int
	Cost    float64
	Snaked  bool

	Evals, Cached, Skipped int64
	HeapDepth              int
}

// Tracer receives spans from the routing pipeline. Implementations must be
// safe for concurrent use: phase and merge spans come from the serial
// orchestration loop, but independent routing runs may share a tracer.
type Tracer interface {
	Span(Span)
}

// CountingTracer counts spans and discards them — the cheapest non-nil
// Tracer, used to benchmark the enabled path's emission overhead apart
// from any encoding cost.
type CountingTracer struct {
	Phases atomic.Int64
	Merges atomic.Int64
}

// Span implements Tracer.
func (t *CountingTracer) Span(s Span) {
	if s.Kind == SpanMerge {
		t.Merges.Add(1)
	} else {
		t.Phases.Add(1)
	}
}

// phaseLine and mergeLine are the JSONL wire forms. Node IDs and merge
// indices are emitted unconditionally (ID 0 is a valid node), so the two
// kinds use distinct structs instead of omitempty.
type phaseLine struct {
	Kind  string `json:"kind"`
	Name  string `json:"name"`
	TNs   int64  `json:"t_ns"`
	DurNs int64  `json:"dur_ns"`
}

type mergeLine struct {
	Kind      string  `json:"kind"`
	Merge     int     `json:"merge"`
	TNs       int64   `json:"t_ns"`
	DurNs     int64   `json:"dur_ns"`
	A         int     `json:"a"`
	B         int     `json:"b"`
	K         int     `json:"k"`
	Cost      float64 `json:"cost"`
	Snaked    bool    `json:"snaked"`
	Evals     int64   `json:"evals"`
	Cached    int64   `json:"cached"`
	Skipped   int64   `json:"skipped"`
	HeapDepth int     `json:"heap_depth"`
}

// JSONLTracer exports every span as one JSON object per line and
// accumulates the per-phase totals for a human-readable flame summary.
// Timestamps are nanoseconds relative to the tracer's creation, so traces
// from one process line up on a common axis.
type JSONLTracer struct {
	mu    sync.Mutex
	enc   *json.Encoder
	start time.Time
	err   error

	phaseOrder []string
	phaseDur   map[string]time.Duration
	merges     int
	mergeDur   time.Duration
	snakes     int
}

// NewJSONL returns a tracer writing JSON lines to w.
func NewJSONL(w io.Writer) *JSONLTracer {
	return &JSONLTracer{enc: json.NewEncoder(w), start: time.Now(), phaseDur: map[string]time.Duration{}}
}

// Span implements Tracer.
func (t *JSONLTracer) Span(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tns := s.Start.Sub(t.start).Nanoseconds()
	var line any
	if s.Kind == SpanMerge {
		t.merges++
		t.mergeDur += s.Dur
		if s.Snaked {
			t.snakes++
		}
		line = mergeLine{Kind: "merge", Merge: s.Merge, TNs: tns, DurNs: s.Dur.Nanoseconds(),
			A: s.A, B: s.B, K: s.K, Cost: s.Cost, Snaked: s.Snaked,
			Evals: s.Evals, Cached: s.Cached, Skipped: s.Skipped, HeapDepth: s.HeapDepth}
	} else {
		if _, seen := t.phaseDur[s.Name]; !seen {
			t.phaseOrder = append(t.phaseOrder, s.Name)
		}
		t.phaseDur[s.Name] += s.Dur
		line = phaseLine{Kind: "phase", Name: s.Name, TNs: tns, DurNs: s.Dur.Nanoseconds()}
	}
	if err := t.enc.Encode(line); err != nil && t.err == nil {
		t.err = err
	}
}

// Err returns the first write or encode error, if any.
func (t *JSONLTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// WriteSummary renders the accumulated flame summary: one bar per phase
// scaled to the longest one, with the merge-loop statistics inlined.
func (t *JSONLTracer) WriteSummary(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var longest time.Duration
	var total time.Duration
	nameW := len("total")
	for _, name := range t.phaseOrder {
		d := t.phaseDur[name]
		total += d
		if d > longest {
			longest = d
		}
		if len(name) > nameW {
			nameW = len(name)
		}
	}
	if _, err := fmt.Fprintf(w, "flame summary (%d phases, %d merges):\n",
		len(t.phaseOrder), t.merges); err != nil {
		return err
	}
	for _, name := range t.phaseOrder {
		d := t.phaseDur[name]
		bar := 1
		if longest > 0 {
			bar = int(20 * d / longest)
			if bar < 1 {
				bar = 1
			}
		}
		extra := ""
		if name == "greedy" && t.merges > 0 {
			extra = fmt.Sprintf("  %d merges · avg %s · %d snaked",
				t.merges, (t.mergeDur / time.Duration(t.merges)).Round(time.Microsecond), t.snakes)
		}
		if _, err := fmt.Fprintf(w, "  %-*s %10s  %s%s\n", nameW, name,
			d.Round(time.Microsecond), strings.Repeat("#", bar), extra); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "  %-*s %10s\n", nameW, "total", total.Round(time.Microsecond))
	return err
}

// Phases returns the phase names in first-seen order.
func (t *JSONLTracer) Phases() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.phaseOrder...)
}

// MergeCount returns the number of merge spans received.
func (t *JSONLTracer) MergeCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.merges
}

// sortedKeys is shared by the summary/export helpers of this package.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
