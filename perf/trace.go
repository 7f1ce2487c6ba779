package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// span is one timed interval of a traced run. Spans the benchmark opens link
// to their parent by ID and carry the request ID the client minted; spans
// the program emits (serve.Config.Tracer and core phase spans) arrive with
// neither, because the program cannot yet join them to a request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps a run's spans in memory until the run ends. A nil
// recorder is the untraced run: layer only calls through.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64
	merges atomic.Int64 // per-merge core spans are counted, not stored

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// layer runs fn inside a span named name under parent (0 = a root) for
// request req. fn receives the span's ID for its own children.
func (r *recorder) layer(name string, parent, req int64, fn func(id int64) error) error {
	if r == nil {
		return fn(0)
	}
	id := r.nextID.Add(1)
	start := time.Since(r.t0)
	err := fn(id)
	r.add(span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start), End: int64(time.Since(r.t0))})
	return err
}

// Span implements obs.Tracer. Core phases are named init, greedy and
// embed; they are recorded as core.init, core.greedy and core.embed.
func (r *recorder) Span(s obs.Span) {
	if s.Kind == obs.SpanMerge {
		r.merges.Add(1)
		return
	}
	name := s.Name
	switch name {
	case "init", "greedy", "embed":
		name = "core." + name
	}
	start := s.Start.Sub(r.t0)
	r.add(span{ID: r.nextID.Add(1), Name: name, Start: int64(start), End: int64(start + s.Dur)})
}

// tracer is the tracer handed to the program: nil when untraced.
func (r *recorder) tracer() obs.Tracer {
	if r == nil {
		return nil
	}
	return r
}

// reset drops every span so far; call it only while no span is open.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
	r.merges.Store(0)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes the spans, one JSON object per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each layer's self time: its spans' durations minus the
// part of each span its children cover, summed by span name. A linked
// child (Parent set) is subtracted from its own parent, with overlapping
// children counted once. An unlinked span — emitted by the program, which
// cannot name its parent — is charged to the layer enclosing (its name
// mapped through enclosing), in aggregate: exact as long as each unlinked
// span lies inside one span of that layer and does not overlap its
// siblings there, which holds for sequential phases of one request even
// when requests run concurrently.
func selfTimes(spans []span, enclosing map[string]string) map[string]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += s.dur() - covered(s, children[s.ID])
		if s.Parent == 0 {
			if p, ok := enclosing[s.Name]; ok {
				self[p] -= s.dur()
			}
		}
	}
	return self
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// rootTime is the summed duration of the spans that have no parent and
// no enclosing layer: the traced wall time the self times divide.
func rootTime(spans []span, enclosing map[string]string) int64 {
	var t int64
	for _, s := range spans {
		if _, inner := enclosing[s.Name]; s.Parent == 0 && !inner {
			t += s.dur()
		}
	}
	return t
}
