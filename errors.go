package gatedclock

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/verify"
)

// Sentinel errors of the public API. Every error returned by the exported
// entry points that fits one of these classes wraps the corresponding
// sentinel, so callers classify failures with errors.Is and never need to
// match message text:
//
//   - ErrInvalidBenchmark: the benchmark or routing instance is malformed —
//     missing/duplicate/out-of-die sinks, non-finite coordinates or loads,
//     empty die, mismatched ISA, oversized instance, bad technology
//     parameters. Returned by NewDesign, GenerateBenchmark and Route.
//   - ErrInvalidStream: the instruction stream is malformed — out-of-range
//     instruction indices, fewer than two cycles, oversized stream.
//   - ErrInvariant: a routed tree (or the fast path's internal state)
//     failed independent verification, or the construction panicked. The
//     route returns no Result; nothing is retried.
//   - ErrCanceled: RouteContext's context was canceled or its deadline
//     expired; the context's own error remains in the chain, so
//     errors.Is(err, context.DeadlineExceeded) also works.
var (
	ErrInvalidBenchmark = bench.ErrInvalid
	ErrInvalidStream    = stream.ErrInvalid
	ErrInvariant        = verify.ErrInvariant
	ErrCanceled         = core.ErrCanceled
)
