// Package obs is the observability layer of the routing pipeline: tracing
// spans, a lock-cheap metrics registry, and the per-run manifest schema.
//
// The package is deliberately zero-dependency (standard library only) and
// imports nothing from the rest of the repository, so every layer — core,
// serve, cluster, the CLI and the examples — can report through it
// without cycles.
//
// Three concerns, three files:
//
//   - trace.go: the Tracer interface and the Span record emitted per
//     construction phase and per bottom-up merge, with a JSONL exporter
//     (one JSON object per line) that also accumulates a human-readable
//     flame summary. A nil Tracer disables tracing; the emitting hot paths
//     are written so the disabled path performs no allocations.
//   - metrics.go: Counter/Gauge/Histogram instruments on a Registry,
//     updated with single atomic operations (the registry lock is taken
//     only at registration), exported as a Prometheus-style text dump.
//     There is no process-wide registry: every instrument lives on the
//     Registry its caller passed in, and a registry is safe to share
//     across concurrent routes.
//   - manifest.go: the per-run JSON manifest (inputs, options, durations,
//     result digest) the gcr command emits for reproducibility.
package obs
