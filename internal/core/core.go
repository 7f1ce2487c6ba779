// Package core implements the paper's gated clock routing algorithm
// (PROCEDURE GatedClockRouting, §4.2): greedy bottom-up merging ordered by
// the switched capacitance of the prospective merge (Equation 3), with
// exact zero-skew tapping points, gate decisions made at merge time, and a
// final top-down placement. It also implements the nearest-neighbour
// geometric greedy of Edahiro [3], which the paper uses to build its
// buffered baseline tree.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/activity"
	"repro/internal/ctrl"
	"repro/internal/dme"
	"repro/internal/faultinject"
	"repro/internal/gating"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/verify"
)

// Sentinel errors of the routing entry points, classifiable with errors.Is.
var (
	// ErrInvalidInput wraps every Instance/Options validation failure.
	ErrInvalidInput = errors.New("core: invalid routing instance")
	// ErrCanceled wraps failures caused by context cancellation or
	// deadline expiry; the underlying context error stays in the chain.
	ErrCanceled = errors.New("core: routing canceled")
)

// Method selects the merge-ordering cost of the bottom-up phase.
type Method int

// Merge-ordering methods.
const (
	// MinSwitchedCap merges, one pair at a time, the pair with the smallest
	// Equation-3 switched capacitance: clock-edge SC plus the estimated
	// controller-star SC of the two prospective gates. The paper's
	// contribution (PROCEDURE GatedClockRouting).
	MinSwitchedCap Method = iota
	// NearestNeighbor is the Edahiro [3] matching heuristic used for the
	// paper's buffered baseline: in each round every node is paired with
	// its nearest available neighbour (shortest merging-sector distances
	// first), halving the node count, which keeps the topology balanced.
	NearestNeighbor
	// GreedyDistance is the one-pair-at-a-time greedy driven by pure
	// merging-sector distance — an ablation isolating the cost function
	// (Eq. 3 vs. wirelength) from the merge schedule.
	GreedyDistance
	// MinClockCapOnly is the cost model of the paper's own prior work [4]
	// (Oh & Pedram, ASP-DAC'98): the greedy minimizes the clock-tree
	// switched capacitance only, ignoring the switched capacitance of the
	// control-signal routing. The present paper's contribution over [4] is
	// exactly the controller-star term, so this method quantifies it.
	MinClockCapOnly
	// ActivityDriven is the topology policy of Téllez, Farrahi and
	// Sarrafzadeh [5] ("Activity Driven Clock Design for Low Power
	// Circuits", ICCAD'95): merge the pair whose combined enable has the
	// smallest signal probability, with geometry only as a tie-break. The
	// paper's introduction criticizes [5] for ignoring "the routing of the
	// clock tree and the control signals, the actual power dissipation and
	// the area" — this method lets that comparison be measured.
	ActivityDriven
	// MeansAndMedians is the classic top-down balanced-bipartition
	// topology (Jackson, Srinivasan & Kuh's method of means and medians):
	// recursively split the sinks at the median of the wider axis, then
	// solve the merges bottom-up. A geometry-only baseline with perfectly
	// balanced depth.
	MeansAndMedians
)

func (m Method) String() string {
	switch m {
	case MinSwitchedCap:
		return "min-switched-cap"
	case NearestNeighbor:
		return "nearest-neighbor"
	case GreedyDistance:
		return "greedy-distance"
	case MinClockCapOnly:
		return "min-clock-cap"
	case ActivityDriven:
		return "activity-driven"
	case MeansAndMedians:
		return "means-and-medians"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// DriverMode selects what is inserted at the tops of the tree edges.
type DriverMode int

// Driver modes.
const (
	// GatedTree places masking AND gates according to Options.Policy; edges
	// the policy declines are plain wires absorbed into the parent domain.
	GatedTree DriverMode = iota
	// BufferedTree places a free-running buffer (half an AND gate) on every
	// edge — the paper's baseline.
	BufferedTree
	// BareTree places no drivers at all: a pure Tsay zero-skew wire tree.
	BareTree
)

func (m DriverMode) String() string {
	switch m {
	case GatedTree:
		return "gated"
	case BufferedTree:
		return "buffered"
	case BareTree:
		return "bare"
	}
	return fmt.Sprintf("DriverMode(%d)", int(m))
}

// Options configures a routing run.
type Options struct {
	Tech    tech.Params
	Method  Method
	Drivers DriverMode
	// Policy selects which edges carry masking gates in GatedTree mode. nil
	// applies the paper's default gate reduction sized to the instance die.
	Policy gating.Policy
	// Controller configures the enable star; nil means centralized at the
	// die center.
	Controller *ctrl.Controller
	// BufferCap inserts a free-running buffer on any ungated edge whose
	// subtree capacitance reaches this threshold (fF), bounding the phase
	// delay of large gating domains without enable wiring. 0 selects a
	// die-scaled default (4·gating.BaseCap); negative disables buffer
	// insertion. Only meaningful for GatedTree.
	BufferCap float64
	// SizeDrivers selects a drive strength from Tech.DriveStrengths for
	// every inserted gate and buffer so that its output delay stays near
	// Tech.SizingTargetPs — the paper's "gates ... can be sized to adjust
	// the phase delay" (§1). Off by default: the paper's experiments use
	// unit gates.
	SizeDrivers bool
	// SkewBoundPs relaxes the exact zero-skew constraint to a global skew
	// budget (ps): detour (snaking) wire is inserted only where the
	// residual skew would exceed the budget. 0 — the paper's setting —
	// routes exact zero skew.
	SkewBoundPs float64
	// Workers sets the number of goroutines used for the best-partner
	// searches of the greedy's initial scan. Orphaned nodes are rescanned
	// lazily, one at a time, and nearest-neighbour rounds search serially.
	// 0 uses GOMAXPROCS; 1 forces serial execution. Results are identical
	// regardless of the worker count.
	Workers int
	// Verify runs the independent post-construction checker
	// (internal/verify) on the finished tree: re-derived Elmore skew,
	// embedding geometry, electrical bookkeeping and activity sanity. A
	// violation fails the route with an error wrapping verify.ErrInvariant.
	Verify bool
	// FaultInject deterministically corrupts fast-path state; used by the
	// robustness tests, nil in production.
	FaultInject *faultinject.Injector
	// Tracer receives per-phase and per-merge spans from the construction
	// (merge index, pair chosen, Equation-3 cost, snaking, memo hit/miss
	// deltas). nil disables tracing; the disabled path adds no allocations
	// to the merge loop. Tracing is a read-only tap: traced runs are
	// bit-identical to silent ones.
	Tracer obs.Tracer
	// Metrics, when non-nil, is the registry the router updates with the
	// core instrument set (merge counters, merge-cost histogram, heap
	// high-water mark, cache hit/skip/eval, index counters). nil disables
	// metrics at zero cost.
	Metrics *obs.Registry
}

// Instance is one routing problem: the die, the sinks (module locations and
// load capacitances) and the activity profile whose module i corresponds to
// sink i.
type Instance struct {
	Die      geom.Rect
	Source   geom.Point // clock source; the zero value selects the die center
	SinkLocs []geom.Point
	SinkCaps []float64
	Profile  *activity.Profile // may be nil for BufferedTree/BareTree runs
}

// Validate checks the instance for structural problems. Every failure
// wraps ErrInvalidInput.
func (in *Instance) Validate(opts Options) error {
	switch {
	case len(in.SinkLocs) == 0:
		return fmt.Errorf("%w: instance has no sinks", ErrInvalidInput)
	case len(in.SinkLocs) != len(in.SinkCaps):
		return fmt.Errorf("%w: %d sink locations vs %d capacitances",
			ErrInvalidInput, len(in.SinkLocs), len(in.SinkCaps))
	case !finite(in.Die.X0) || !finite(in.Die.Y0) || !finite(in.Die.X1) || !finite(in.Die.Y1):
		return fmt.Errorf("%w: die %+v has non-finite corners", ErrInvalidInput, in.Die)
	case in.Die.W() <= 0 || in.Die.H() <= 0:
		return fmt.Errorf("%w: empty die", ErrInvalidInput)
	case !finite(in.Source.X) || !finite(in.Source.Y):
		return fmt.Errorf("%w: non-finite source %v", ErrInvalidInput, in.Source)
	}
	for i, p := range in.SinkLocs {
		if !finite(p.X) || !finite(p.Y) {
			return fmt.Errorf("%w: sink %d at non-finite location %v", ErrInvalidInput, i, p)
		}
	}
	for i, c := range in.SinkCaps {
		if !finite(c) || c < 0 {
			return fmt.Errorf("%w: sink %d has bad load %v", ErrInvalidInput, i, c)
		}
	}
	if !(opts.SkewBoundPs >= 0) || math.IsInf(opts.SkewBoundPs, 1) {
		return fmt.Errorf("%w: bad skew bound %v", ErrInvalidInput, opts.SkewBoundPs)
	}
	if math.IsNaN(opts.BufferCap) {
		return fmt.Errorf("%w: NaN buffer-insertion threshold", ErrInvalidInput)
	}
	needProfile := opts.Drivers == GatedTree ||
		opts.Method == MinSwitchedCap || opts.Method == MinClockCapOnly ||
		opts.Method == ActivityDriven
	if needProfile {
		if in.Profile == nil {
			return fmt.Errorf("%w: gated routing requires an activity profile", ErrInvalidInput)
		}
		if in.Profile.ISA.NumModules < len(in.SinkLocs) {
			return fmt.Errorf("%w: profile covers %d modules but instance has %d sinks",
				ErrInvalidInput, in.Profile.ISA.NumModules, len(in.SinkLocs))
		}
	}
	if err := opts.Tech.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	return nil
}

// finite reports whether v is a finite float (not NaN, not ±Inf).
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Stats reports how the construction went.
type Stats struct {
	Merges    int // number of bottom-up merges (N−1)
	Snakes    int // merges that required wire elongation
	PairEvals int // candidate pair cost evaluations (full merges solved)
	// PairEvalsSkipped counts candidates discarded because their admissible
	// lower bound already exceeded the running best — no merge solved and
	// no memo consulted.
	PairEvalsSkipped int
	// PairEvalsCached counts candidate lookups served from the pair-cost
	// memo instead of being re-evaluated.
	PairEvalsCached int
	// PairMemoStores counts pair costs written into the memo — the
	// memo-eligible misses, and the denominator of CacheHitRate. Pruned
	// candidates never reach the memo and are not counted.
	PairMemoStores int

	// Spatial-index counters (spatial.go); all zero when no pyramid walk
	// ran (MeansAndMedians, a single sink).
	IndexSearches   int // quadtree walks (best-partner + fold-in)
	IndexCandidates int // candidates that reached the per-candidate filter
	// IndexRegionsVisited counts quadtree regions expanded or scanned —
	// regions that survived the occupancy and dominance checks; the budget
	// it tracks is how much of the pyramid a search touches.
	IndexRegionsVisited int
	IndexRebuilds       int // grid rebuilds: active set halved, or a new nearest-neighbour round
	// IndexNeighborhood is a histogram of per-search filter-touched
	// candidate counts; bucket i counts searches that examined at most 2^i
	// candidates (the last bucket is unbounded). Candidates discarded at
	// region granularity are counted in PairEvalsSkipped but not here —
	// the histogram prices the per-candidate work a search actually did.
	IndexNeighborhood [12]int

	// Wall time per construction phase.
	PhaseInit   time.Duration // initial best-partner scan (one-pair-at-a-time greedy)
	PhaseGreedy time.Duration // merge loop (rescans, fold-ins, heap)
	PhaseEmbed  time.Duration // root finishing, embedding, validation
}

// NeighborhoodQuantile returns the frac-quantile (0 < frac ≤ 1) of the
// per-search candidate count from the log2 neighborhood histogram, as the
// upper edge 2^i of the bucket holding that quantile — the resolution the
// histogram has. Returns 0 when no searches were recorded. This is the
// number "p90 candidates per search ≤ budget" assertions and gcr -stats
// read.
func (s Stats) NeighborhoodQuantile(frac float64) int {
	total := 0
	for _, n := range s.IndexNeighborhood {
		total += n
	}
	if total == 0 {
		return 0
	}
	need := int(math.Ceil(frac * float64(total)))
	if need < 1 {
		need = 1
	}
	run := 0
	for i, n := range s.IndexNeighborhood {
		run += n
		if run >= need {
			return 1 << i
		}
	}
	return 1 << (len(s.IndexNeighborhood) - 1)
}

// CacheHitRate returns the fraction of memo-eligible lookups answered by
// the pair-cost memo: Cached / (Cached + Stores). Candidates pruned by the
// geometric lower bound never demand a memoizable merge solve, so they do
// not belong in the denominator. PairMemoStores counts exactly the lookups
// that missed and filled the memo, so the rate reflects what the memo was
// actually asked for.
func (s Stats) CacheHitRate() float64 {
	total := s.PairMemoStores + s.PairEvalsCached
	if total == 0 {
		return 0
	}
	return float64(s.PairEvalsCached) / float64(total)
}

// Route constructs a zero-skew clock tree for the instance.
func Route(in *Instance, opts Options) (*topology.Tree, Stats, error) {
	return RouteContext(context.Background(), in, opts)
}

// RouteContext is Route under a context: cancellation or deadline expiry is
// honored at checkpoints inside the bottom-up merge and scan loops, failing
// the route with an error wrapping ErrCanceled (and the context's own
// error) without a partial result. A fast-path invariant failure or panic
// fails the route with an error wrapping verify.ErrInvariant.
func RouteContext(ctx context.Context, in *Instance, opts Options) (*topology.Tree, Stats, error) {
	if err := in.Validate(opts); err != nil {
		return nil, Stats{}, err
	}
	r := newRouter(ctx, in, opts)
	tree, err := r.run()
	// Load the counters before the error checks: a failed route's work
	// still reaches Stats and the metrics registry.
	r.stats.PairEvals = int(r.pairEvals.Load())
	r.stats.PairEvalsSkipped = int(r.pairSkipped.Load())
	r.stats.PairEvalsCached = int(r.pairCached.Load())
	r.stats.PairMemoStores = int(r.memoStores.Load())
	r.stats.IndexSearches = int(r.idxSearches.Load())
	r.stats.IndexCandidates = int(r.idxCandidates.Load())
	r.stats.IndexRegionsVisited = int(r.idxRegions.Load())
	for i := range r.idxHist {
		r.stats.IndexNeighborhood[i] = int(r.idxHist[i].Load())
	}
	if err == nil && opts.Verify {
		err = verify.Tree(tree, opts.Tech, opts.SkewBoundPs)
	}
	r.flushInstruments(r.stats)
	if err != nil {
		return nil, r.stats, err
	}
	return tree, r.stats, nil
}

// newRouter resolves the defaults of opts — the gating policy, the buffer
// threshold, the controller, the clock source and the worker count — into
// a router for one construction on in.
func newRouter(ctx context.Context, in *Instance, opts Options) *router {
	r := &router{in: in, opts: opts, ctx: ctx,
		tracer: opts.Tracer, inst: newCoreInstruments(opts.Metrics)}
	side := in.Die.W()
	if in.Die.H() > side {
		side = in.Die.H()
	}
	if opts.Policy == nil {
		// The paper's recommended configuration: gate reduction sized to
		// the instance's die.
		r.policy = gating.DefaultReduction(opts.Tech.Gate.Cin, side)
	} else {
		r.policy = opts.Policy
	}
	switch {
	case opts.BufferCap > 0:
		r.bufferCap = opts.BufferCap
	case opts.BufferCap == 0:
		r.bufferCap = 4 * gating.BaseCap(opts.Tech.Gate.Cin, side)
	default:
		r.bufferCap = math.Inf(1)
	}
	if opts.Controller == nil {
		r.controller = ctrl.Centralized(in.Die)
	} else {
		r.controller = opts.Controller
	}
	r.source = in.Source
	if (r.source == geom.Point{}) {
		r.source = in.Die.Center()
	}
	r.workers = opts.Workers
	if r.workers <= 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}
	return r
}

type router struct {
	in         *Instance
	opts       Options
	ctx        context.Context
	policy     gating.Policy
	controller *ctrl.Controller
	source     geom.Point

	bufferCap float64 // ungated-edge buffer-insertion threshold (fF)
	workers   int

	// Arenas of the construction. A tree has 2n−1 nodes: n sinks and the
	// n−1 merges every run of the greedy performs. Each node is one Node
	// and (with a profile) one InstrSet of actWords words, so both are
	// carved from backing arrays sized up front in makeSinks. Arena slots
	// are tree-resident — the tree outlives the router, and so do the
	// arrays. If an arena ever runs dry (a schedule that merges more than
	// n−1 times would be a bug elsewhere), carving falls back to the heap
	// rather than reallocating and invalidating handed-out pointers.
	nodeArena []topology.Node
	wordArena []uint64
	actWords  int

	nextID      int
	stats       Stats
	pairEvals   atomic.Int64
	pairSkipped atomic.Int64
	pairCached  atomic.Int64
	memoStores  atomic.Int64

	// Spatial-index accounting; updated by the (possibly parallel) pyramid
	// searches, loaded into Stats once per attempt.
	idxSearches   atomic.Int64
	idxCandidates atomic.Int64
	idxRegions    atomic.Int64
	idxHist       [len(Stats{}.IndexNeighborhood)]atomic.Int64

	// Observability taps (obs.go); all nil/zero when disabled.
	tracer obs.Tracer
	inst   *coreInstruments
	// Counter values at the previous traced merge, for per-merge deltas.
	lastEvals, lastCached, lastSkipped int64
}

// checkCtx is the cancellation checkpoint, called at every merge and at
// every index of the parallel scans; it costs one atomic load when the
// context is still live.
func (r *router) checkCtx() error {
	if r.ctx == nil {
		return nil
	}
	if err := r.ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// safeCallW invokes fn(i, w) behind a panic barrier, converting a panic to
// an invariant error at the call boundary — a recover() in the
// orchestration loop cannot reach a worker goroutine's stack, and crashing
// the process would make the corruption unrecoverable. A plain function
// (not a closure built per parallelForW call) so the parallel scan
// allocates nothing for the guard.
func safeCallW(fn func(i, w int) error, i, w int) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = invariantf("panic in parallel scan at index %d: %v", i, rec)
		}
	}()
	return fn(i, w)
}

// parallelForW runs fn(0..n-1) across the router's workers, preserving
// nothing but the per-index outputs fn writes; the first error wins. fn
// also receives the index w (0 ≤ w < workers) of the goroutine running
// it, so callers can hand each worker private scratch (its search walker)
// without locking. The serial path — one worker, or too few items to be
// worth the fan-out — always reports w = 0.
func (r *router) parallelForW(n int, fn func(i, w int) error) error {
	if r.workers <= 1 || n < 64 {
		for i := 0; i < n; i++ {
			if err := r.checkCtx(); err != nil {
				return err
			}
			if err := safeCallW(fn, i, 0); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := r.checkCtx(); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				if err := safeCallW(fn, i, w); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return err
	}
	return nil
}

// cand caches a node's cheapest merge partner.
type cand struct {
	partner *topology.Node
	cost    float64
}

func (r *router) run() (*topology.Tree, error) {
	buildStart := time.Now()
	var root *topology.Node
	var err error
	switch r.opts.Method {
	case NearestNeighbor:
		root, err = r.runRounds()
	case MeansAndMedians:
		root, err = r.runMMM()
	default:
		root, err = r.runGreedyProtected()
	}
	// Record the greedy phase even when the construction failed, so a
	// failed route's Stats and metrics include the aborted work's time.
	r.stats.PhaseGreedy = time.Since(buildStart) - r.stats.PhaseInit
	r.observePhase("init", buildStart, r.stats.PhaseInit)
	r.observePhase("greedy", buildStart.Add(r.stats.PhaseInit), r.stats.PhaseGreedy)
	if err != nil {
		return nil, err
	}
	embedStart := time.Now()
	r.finishRoot(root)
	tree := &topology.Tree{Root: root, Source: r.source}
	dme.Embed(tree)
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	r.stats.PhaseEmbed = time.Since(embedStart)
	r.observePhase("embed", embedStart, r.stats.PhaseEmbed)
	return tree, nil
}

// runRounds implements the nearest-neighbour matching schedule: rounds of
// greedy minimum-distance matching, each round merging as many disjoint
// nearest pairs as possible. Every node of the round nominates its nearest
// neighbour by a pyramid walk over a grid of exactly the round's starting
// set (the polDist bound: the pair cost is the sector distance), under the
// (distance, then partner ID) argmin an all-pairs scan takes; nominations
// are matched in (distance, then node ID) order. Merge nodes are
// registered for the next round's grid, never inserted into this one.
func (r *router) runRounds() (*topology.Node, error) {
	active := r.makeSinks()
	if len(active) == 1 {
		return active[0], nil
	}
	g := r.newGreedyState(active)
	type pair struct {
		a, b *topology.Node
		d    float64
	}
	cands := make([]pair, 0, len(active))
	for len(active) > 1 {
		cands = cands[:0]
		for _, n := range active {
			if err := r.checkCtx(); err != nil {
				return nil, err
			}
			c, err := r.bestPartnerIndexed(g, n, 0)
			if err != nil {
				return nil, err
			}
			cands = append(cands, pair{a: n, b: c.partner, d: c.cost})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].d != cands[j].d {
				return cands[i].d < cands[j].d
			}
			return cands[i].a.ID < cands[j].a.ID
		})
		// alive doubles as the round's "not yet matched" mark.
		var next []*topology.Node
		for _, c := range cands {
			if !g.alive[c.a.ID] || !g.alive[c.b.ID] {
				continue
			}
			k, err := r.merge(c.a, c.b)
			if err != nil {
				return nil, err
			}
			r.stats.Merges++
			g.alive[c.a.ID], g.alive[c.b.ID] = false, false
			g.byID[k.ID] = k
			g.rows[k.ID], g.rows[c.a.ID] = g.rows[c.a.ID][:0], nil // a searches no more
			r.indexRegister(g, k)
			next = append(next, k)
		}
		for _, n := range active {
			if g.alive[n.ID] {
				next = append(next, n)
			}
		}
		for _, k := range next {
			g.alive[k.ID] = true
		}
		active = next
		if len(active) > 1 {
			r.rebuildIndex(g)
		}
	}
	return active[0], nil
}

// runMMM builds the topology top-down by recursive balanced bipartition at
// the median of the wider spread axis, then solves the merges bottom-up.
func (r *router) runMMM() (*topology.Node, error) {
	sinks := r.makeSinks()
	var build func(part []*topology.Node) (*topology.Node, error)
	build = func(part []*topology.Node) (*topology.Node, error) {
		if len(part) == 1 {
			return part[0], nil
		}
		// Split at the median of the axis with the larger spread.
		bbox := geom.BoundingRect(locsOf(part))
		byX := bbox.W() >= bbox.H()
		sort.Slice(part, func(i, j int) bool {
			if byX {
				if part[i].Loc.X != part[j].Loc.X {
					return part[i].Loc.X < part[j].Loc.X
				}
				return part[i].Loc.Y < part[j].Loc.Y
			}
			if part[i].Loc.Y != part[j].Loc.Y {
				return part[i].Loc.Y < part[j].Loc.Y
			}
			return part[i].Loc.X < part[j].Loc.X
		})
		mid := len(part) / 2
		left, err := build(part[:mid])
		if err != nil {
			return nil, err
		}
		right, err := build(part[mid:])
		if err != nil {
			return nil, err
		}
		k, err := r.merge(left, right)
		if err != nil {
			return nil, err
		}
		r.stats.Merges++
		return k, nil
	}
	return build(sinks)
}

func locsOf(nodes []*topology.Node) []geom.Point {
	pts := make([]geom.Point, len(nodes))
	for i, n := range nodes {
		pts[i] = n.Loc
	}
	return pts
}

func (r *router) makeSinks() []*topology.Node {
	n := len(r.in.SinkLocs)
	// One backing array for all 2n−1 nodes of the tree (n sinks + n−1
	// merges) and, when a profile is attached, one for their 2n−1
	// instruction sets. The slabs live exactly as long as the tree that
	// points into them.
	slab := make([]topology.Node, n, 2*n-1)
	nodes := make([]*topology.Node, n)
	if p := r.in.Profile; p != nil {
		r.actWords = p.SetWords()
		r.wordArena = make([]uint64, 0, (2*n-1)*r.actWords)
	}
	for i, loc := range r.in.SinkLocs {
		slab[i] = topology.MakeSink(i, i, loc, r.in.SinkCaps[i])
		node := &slab[i]
		if p := r.in.Profile; p != nil {
			node.Instr = p.FillForModule(r.carveWords(), i)
			node.P = p.SignalProb(node.Instr)
			node.Ptr = p.TransProb(node.Instr)
		}
		nodes[i] = node
	}
	r.nodeArena = slab
	r.nextID = n
	return nodes
}

// carveNode returns a pointer to a fresh Node slot from the arena, or a
// heap-allocated Node if the arena is exhausted (defensive: appending past
// capacity would move the array under every handed-out pointer).
func (r *router) carveNode() *topology.Node {
	if len(r.nodeArena) < cap(r.nodeArena) {
		r.nodeArena = r.nodeArena[:len(r.nodeArena)+1]
		return &r.nodeArena[len(r.nodeArena)-1]
	}
	return &topology.Node{}
}

// carveWords returns an actWords-long bitset buffer from the word arena,
// or a fresh one when the arena is dry (same aliasing argument as
// carveNode).
func (r *router) carveWords() activity.InstrSet {
	if len(r.wordArena)+r.actWords <= cap(r.wordArena) {
		off := len(r.wordArena)
		r.wordArena = r.wordArena[:off+r.actWords]
		return r.wordArena[off : off+r.actWords : off+r.actWords]
	}
	return make([]uint64, r.actWords)
}

// decideDrivers chooses the drivers for the two edges of a prospective
// merge. parentP is the signal probability of the merged enable (known at
// merge time because EN_k = EN_i ∨ EN_j).
func (r *router) decideDrivers(a, b *topology.Node, parentP float64) (da, db *tech.Driver, ga, gb bool) {
	switch r.opts.Drivers {
	case BufferedTree:
		dist := a.MS.Dist(b.MS)
		return r.sized(&r.opts.Tech.Buffer, r.subtreeCap(a, dist/2)),
			r.sized(&r.opts.Tech.Buffer, r.subtreeCap(b, dist/2)), false, false
	case BareTree:
		return nil, nil, false, false
	}
	dist := a.MS.Dist(b.MS)
	if r.gateEdge(a, parentP, dist/2) {
		da, ga = &r.opts.Tech.Gate, true
	} else if r.subtreeCap(a, dist/2) >= r.bufferCap {
		da = &r.opts.Tech.Buffer
	}
	if r.gateEdge(b, parentP, dist/2) {
		db, gb = &r.opts.Tech.Gate, true
	} else if r.subtreeCap(b, dist/2) >= r.bufferCap {
		db = &r.opts.Tech.Buffer
	}
	da = r.sized(da, r.subtreeCap(a, dist/2))
	db = r.sized(db, r.subtreeCap(b, dist/2))
	return da, db, ga, gb
}

// sized upgrades a unit driver to the drive strength matching its load when
// Options.SizeDrivers is set.
func (r *router) sized(d *tech.Driver, load float64) *tech.Driver {
	if d == nil || !r.opts.SizeDrivers {
		return d
	}
	s := r.opts.Tech.PickStrength(*d, load)
	if s == 1 {
		return d
	}
	// Strengths come from Tech.DriveStrengths, vetted by Params.Validate.
	scaled := d.MustScaled(s)
	return &scaled
}

// subtreeCap estimates the capacitance a driver at the top of the edge
// feeding n would have to drive.
func (r *router) subtreeCap(n *topology.Node, estLen float64) float64 {
	return r.opts.Tech.WireCapPerLambda*estLen + n.Cap
}

// gateEdge asks the policy whether the edge feeding n should carry a gate,
// estimating the to-be-shielded capacitance with half the merge distance of
// wire.
func (r *router) gateEdge(n *topology.Node, parentP, estLen float64) bool {
	return r.policy.Gate(gating.EdgeInfo{
		P:          n.P,
		Ptr:        n.Ptr,
		ParentP:    parentP,
		SubtreeCap: r.subtreeCap(n, estLen),
		IsSink:     n.IsSink(),
	})
}

// edgeSC is one side of Equation 3: the switched capacitance contributed by
// the prospective edge of length l feeding node n.
//
// Gated edge:   (c·l + C_n)·P(EN_n) + (c_ctrl·dist(CP, mid(ms(n))) + C_g)·Ptr(EN_n)
// Plain edge:   (c·l + C_n)·P(EN_parent)  — charged at the best bottom-up
//
//	estimate of the surrounding domain's activity
//
// Buffered edge: (c·l + C_n)·1 plus the always-switching buffer input.
func (r *router) edgeSC(n *topology.Node, l float64, gated bool, parentP float64) float64 {
	// Params is read through a pointer and its per-λ formulas are spelled
	// out: the struct is large enough that copying it (or a value-receiver
	// method call) dominates this hottest of leaves.
	t := &r.opts.Tech
	wireAndAttach := t.WireCapPerLambda*l + n.AttachCap
	if gated {
		if r.opts.Method == MinClockCapOnly {
			// The [4] cost model is blind to the enable star.
			return wireAndAttach * n.P
		}
		star := r.controller.StarDist(n.MS.Center())
		return wireAndAttach*n.P +
			(t.CtrlCapPerLambda*star+t.Gate.Cin)*n.Ptr
	}
	domP := parentP
	if r.opts.Drivers != GatedTree {
		domP = 1
	}
	sc := wireAndAttach * domP
	if r.opts.Drivers == BufferedTree {
		sc += t.Buffer.Cin // buffer input switches with the clock, always on
	}
	return sc
}

// edgeWeight is the factor edgeSC multiplies the edge's wire capacitance
// by: the activity charged per fF of wire on the edge feeding n. Used by
// the fast path's geometric lower bound (pairCostGated).
func (r *router) edgeWeight(n *topology.Node, gated bool, parentP float64) float64 {
	if gated {
		return n.P
	}
	if r.opts.Drivers != GatedTree {
		return 1
	}
	return parentP
}

// merge performs the actual zero-skew merge of a and b, installing drivers
// and activity on the new node.
func (r *router) merge(a, b *topology.Node) (*topology.Node, error) {
	if err := r.checkCtx(); err != nil {
		return nil, err
	}
	parentP := 1.0
	var parentSet activity.InstrSet
	if p := r.in.Profile; p != nil {
		parentSet = r.carveWords()
		copy(parentSet, a.Instr)
		parentSet.Or(b.Instr)
		parentP = p.SignalProb(parentSet)
	}
	da, db, ga, gb := r.decideDrivers(a, b, parentP)
	m, err := dme.BoundedSkewMerge(r.opts.Tech,
		dme.Branch{MS: a.MS, Delay: a.Delay, Spread: a.Spread, Cap: a.Cap, Driver: da},
		dme.Branch{MS: b.MS, Delay: b.Delay, Spread: b.Spread, Cap: b.Cap, Driver: db},
		r.opts.SkewBoundPs)
	if err != nil {
		return nil, err
	}
	if m.Snaked {
		r.stats.Snakes++
	}

	k := r.carveNode()
	*k = topology.Node{
		ID:        r.nextID,
		SinkIndex: -1,
		Left:      a,
		Right:     b,
		MS:        m.MS,
		Delay:     m.Delay,
		Spread:    m.Spread,
		Cap:       m.Cap,
		Instr:     parentSet,
		P:         parentP,
	}
	r.nextID++
	if p := r.in.Profile; p != nil {
		k.Ptr = p.TransProb(parentSet)
	}
	a.Parent, b.Parent = k, k
	a.EdgeLen, b.EdgeLen = m.LenA, m.LenB
	a.SetDriver(da, ga)
	b.SetDriver(db, gb)
	k.AttachCap = r.attachContribution(a) + r.attachContribution(b)
	return k, nil
}

// attachContribution is what the edge owned by n adds to its parent's
// domain-attached capacitance.
func (r *router) attachContribution(n *topology.Node) float64 {
	if n.Driver != nil {
		return n.Driver.Cin
	}
	return r.opts.Tech.WireCap(n.EdgeLen) + n.AttachCap
}

// finishRoot decides the driver on the source-to-root edge. The source
// domain is always on (ParentP = 1).
func (r *router) finishRoot(root *topology.Node) {
	switch r.opts.Drivers {
	case BufferedTree:
		est := geom.Dist(r.source, root.MS.Nearest(r.source))
		root.SetDriver(r.sized(&r.opts.Tech.Buffer, r.subtreeCap(root, est)), false)
	case GatedTree:
		est := geom.Dist(r.source, root.MS.Nearest(r.source))
		if r.gateEdge(root, 1, est) {
			root.SetDriver(r.sized(&r.opts.Tech.Gate, r.subtreeCap(root, est)), true)
		}
	}
}
