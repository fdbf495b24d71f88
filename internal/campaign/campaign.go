// Package campaign runs analysis campaigns: declarative matrices of
// workload × platform preset × tuner-option variant, evaluated with each
// kernel executed at most once — and, with the analysis cache, each
// placement space probed and swept at most once.
//
// The paper's workflow (§III, Fig. 6) captures one reference run per
// workload and then explores many placement configurations against it.
// The campaign engine is that idea industrialised for scenario sweeps,
// as a ladder of content-addressed caches:
//
//   - stage zero probes for complete analyses — first the flight
//     group, the engine's one in-process store, then the on-disk
//     analysis cache: cells whose full analysis is already cached are
//     done without touching a snapshot, a registry, or a placement
//     sweep;
//   - stage one resolves every distinct reference run the remaining
//     cells need — from the group or the content-addressed snapshot
//     cache (so captures are shared across runs and processes), by
//     derivation from a cached or captured family sibling (an
//     iteration/scale transposition that never executes the kernel;
//     see core.DeriveSnapshot), or by executing the kernel once per
//     derivation family — and builds one shared core.ReplayContext per
//     capture: the registry is restored and the trace copied once, not
//     per cell;
//   - stage two probes the GroupBy cells, whose keys need their
//     capture's sites, then fans the remaining cells over
//     internal/parallel workers, each replaying its capture's shared
//     context into a tuner analysis and publishing the result back into
//     the analysis cache.
//
// Replayed analyses are byte-identical to live Tuner.Analyze results
// (cached ones byte-identical to the run that stored them), and cells
// own pre-assigned result slots, so the outcome is deterministic for
// any worker count.
package campaign

import (
	"context"
	"fmt"
	"sort"

	"hmpt/internal/core"
	"hmpt/internal/memsim"
	"hmpt/internal/parallel"
	"hmpt/internal/shim"
	"hmpt/internal/trace"
	"hmpt/internal/workloads"
)

// Workload is one workload row of a campaign matrix.
type Workload struct {
	// Name identifies the workload in cells and cache keys; it must
	// match what the factory's instances report from Name().
	Name string
	// Factory builds instances for reference capture.
	Factory workloads.Factory
	// Options carries the workload's base tuner options (seed, runs,
	// grouping); platform and variants overlay it per cell.
	Options core.Options
}

// Platform is one platform-preset column of a campaign matrix.
type Platform struct {
	Name     string
	Platform *memsim.Platform
}

// Variant is one tuner-option overlay of a campaign matrix: a named
// mutation of the cell options (different run counts, group budgets,
// seeds, sweep parallelism, ...). A variant that changes the capture
// inputs (threads, scale, seed) gets its own reference capture; all
// others share the workload's.
type Variant struct {
	Name  string
	Apply func(*core.Options)
}

// Matrix declares a campaign's scenario space. Cells enumerate
// workload-major, then platform, then variant.
type Matrix struct {
	Workloads []Workload
	Platforms []Platform
	// Variants may be empty: the matrix then has one pass-through
	// variant with an empty name.
	Variants []Variant
}

// Cell is one evaluated scenario of a campaign.
type Cell struct {
	Workload string
	Platform string
	Variant  string
	// Options are the fully resolved tuner options the cell ran with.
	Options core.Options
	// Analysis is the result; nil when Err is set.
	Analysis *core.Analysis
	Err      error
	// FromCache reports whether the cell's reference snapshot was
	// served from a cache (an entry the flight group retained from an
	// earlier run, or the on-disk store) rather than captured this run.
	FromCache bool
	// Derived reports whether the cell's reference snapshot was
	// synthesized this run by transposing a derivation-family sibling
	// (core.DeriveSnapshot) instead of executing the kernel or hitting
	// a cache.
	Derived bool
	// SeedDerived reports whether that derivation transposed the
	// snapshot across seeds (the base capture was recorded under a
	// different seed and Meta.Seed/Meta.EnvSeed were rewritten). Always
	// implies Derived.
	SeedDerived bool
	// AnalysisFromCache reports whether the cell's entire analysis was
	// served from a cache (flight group or disk): the cell ran zero
	// kernel executions, zero sampling passes and zero placement
	// costing. Cached analyses are shared read-only.
	AnalysisFromCache bool
	// Coalesced reports whether the cell's reference snapshot was served
	// from a capture computation another run started in a shared
	// FlightGroup (joined in flight, or completed after this run's
	// probe) instead of being resolved by this run.
	Coalesced bool
}

// Result is the outcome of one campaign run.
type Result struct {
	Cells []Cell
	// Snapshots is the number of distinct reference runs the matrix
	// needed beyond the analysis cache; Executions how many of those
	// were actually executed this run, CacheHits how many were served
	// from a cache (flight group or on-disk store), and Derived how
	// many were synthesized from a derivation-family sibling without
	// executing a kernel. Executions + CacheHits + Derived == Snapshots
	// on a fully successful run.
	// Coalesced counts captures served from another run's computation
	// in a shared FlightGroup (see Cell.Coalesced). On a fully
	// successful run Executions + CacheHits + Derived + Coalesced ==
	// Snapshots.
	Snapshots  int
	Executions int
	CacheHits  int
	Derived    int
	Coalesced  int
	// SeedDerived counts the subset of Derived whose base capture was
	// recorded under a different seed — it is not a fifth disjoint
	// provenance class, so it does not enter the Snapshots identity
	// above.
	SeedDerived int
	// AnalysisHits counts cells whose complete analysis was served from
	// a cache (flight group or disk) — cells that ran zero kernel
	// executions, zero sampling passes and zero placement costing. A
	// fully warm campaign has AnalysisHits == len(Cells); if the matrix
	// is also GroupBy-free, Snapshots == 0 too (GroupBy cells resolve
	// their capture to fingerprint the policy before probing, so their
	// snapshot load still shows up even when the analysis hits).
	AnalysisHits int
	// CacheErrs records non-fatal cache failures — snapshot-cache load
	// and store errors in capture-key order, then analysis-cache load
	// and store errors in cell order. The affected cells still
	// analysed — a load failure recomputed, a store failure kept the
	// in-memory result — but the operator should know the cache is
	// degraded.
	CacheErrs []error
}

// Cell returns the cell for the given coordinates, or nil.
func (r *Result) Cell(workload, platform, variant string) *Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Workload == workload && c.Platform == platform && c.Variant == variant {
			return c
		}
	}
	return nil
}

// Err returns the first cell error in matrix order, or nil.
func (r *Result) Err() error {
	for i := range r.Cells {
		if r.Cells[i].Err != nil {
			return fmt.Errorf("campaign: cell %s/%s/%s: %w",
				r.Cells[i].Workload, r.Cells[i].Platform, r.Cells[i].Variant, r.Cells[i].Err)
		}
	}
	return nil
}

// Engine evaluates campaign matrices.
type Engine struct {
	// Cache persists reference snapshots across runs and processes;
	// nil keeps snapshots in memory only.
	Cache *trace.SnapshotCache
	// Analyses persists complete analyses across runs and processes —
	// the third caching layer after snapshots (zero kernels) and
	// embedded sample counts (zero sampling): a cell served from it
	// runs zero placement costing, and a fully warm campaign never
	// resolves a snapshot at all. nil disables the disk layer; the
	// flight group still shares analyses in memory.
	Analyses *core.AnalysisCache
	// Flights is the engine's in-process store. It coalesces concurrent
	// identical capture and analysis computations across engine runs —
	// N runs needing the same capture or the same analysis at the same
	// moment execute it once and share the result — and retains every
	// computed value and every disk-cache hit, probed before the disk
	// caches (see FlightGroup). nil creates a private group per Run, so
	// nothing is shared beyond that run; the serving layer shares one
	// group across all requests.
	Flights *FlightGroup
	// Parallelism caps the worker goroutines of the capture and
	// analysis fan-outs (0 = GOMAXPROCS). Results are identical for
	// any value.
	Parallelism int
}

// capture is one distinct reference run the matrix needs.
type capture struct {
	key         trace.SnapshotKey
	id          string // "cap/" + key.ID(): the flight key, hashed once
	factory     workloads.Factory
	opts        core.Options
	snap        *trace.Snapshot
	ctx         *core.ReplayContext
	hit         bool
	derived     bool // synthesized from a family sibling this run
	seedDerived bool // ...and the sibling was captured under another seed
	coalesced   bool // served from another run's flight in a shared group
	err         error
	cacheErr    error // non-fatal: the disk cache failed a load or store
}

// capOutcome is the shareable result of one capture flight (or one
// retained snapshot-cache hit): everything another run needs to proceed
// as if it had resolved the capture itself. The pointers are shared and
// read-only.
type capOutcome struct {
	snap *trace.Snapshot
	ctx  *core.ReplayContext
}

// cellWork is the per-cell scheduling state of one Run.
type cellWork struct {
	cap     *capture
	key     core.AnalysisKey
	id      string // "an/" + key.ID(): the flight key, hashed once
	haveKey bool
	done    bool  // analysis served in stage 0
	aErr    error // non-fatal: the analysis cache failed a load or store
}

// Run evaluates the matrix: cells already resolved by the analysis cache
// are served directly (stage 0), every reference run the remaining
// cells need is captured (or loaded) exactly once and wrapped in one
// shared replay context (stage 1), then every remaining cell replays
// its capture's context into an analysis and publishes it back into the
// cache (stage 2). Per-cell failures are recorded on the cells — one
// diverging scenario must not sink a thousand-cell campaign — and
// surfaced together through Result.Err.
func (e *Engine) Run(m Matrix) (*Result, error) {
	return e.RunContext(context.Background(), m)
}

// RunContext is Run with cooperative cancellation: workers poll ctx
// between cells, between family members, and (through core's pipeline)
// between sweep masks and probes, so a cancelled request stops cold
// work mid-matrix. When ctx dies the run returns (nil, ctx.Err()) —
// partial results are discarded, the cache tree stays consistent (every
// publish is atomic and completed stores remain valid), and a
// subsequent identical run simply resumes from whatever the cancelled
// one had already published. Flight computations shared with other
// concurrent runs are NOT cancelled unless this run was their last
// interested caller (see FlightGroup).
func (e *Engine) RunContext(ctx context.Context, m Matrix) (*Result, error) {
	flights := e.Flights
	if flights == nil {
		// A private group scopes sharing to this run: cells sharing one
		// analysis key share one computation, nothing outlives the run.
		flights = NewFlightGroup()
	}
	variants := m.Variants
	if len(variants) == 0 {
		variants = []Variant{{}}
	}
	if len(m.Workloads) == 0 || len(m.Platforms) == 0 {
		return nil, fmt.Errorf("campaign: matrix needs at least one workload and one platform")
	}

	// Enumerate cells and the distinct captures they need.
	res := &Result{Cells: make([]Cell, 0, len(m.Workloads)*len(m.Platforms)*len(variants))}
	caps := make(map[string]*capture)
	capOf := make([]*capture, 0, cap(res.Cells)) // cell index -> capture
	for _, w := range m.Workloads {
		for _, p := range m.Platforms {
			for _, v := range variants {
				opts := w.Options
				opts.Platform = p.Platform
				opts.Snapshot = nil
				if v.Apply != nil {
					v.Apply(&opts)
				}
				key := core.SnapshotKeyFor(w.Name, opts)
				id := key.ID()
				c, ok := caps[id]
				if !ok {
					c = &capture{key: key, id: "cap/" + id, factory: w.Factory, opts: opts}
					caps[id] = c
				}
				capOf = append(capOf, c)
				res.Cells = append(res.Cells, Cell{
					Workload: w.Name, Platform: p.Name, Variant: v.Name, Options: opts,
				})
			}
		}
	}
	work := make([]cellWork, len(res.Cells))
	for i := range work {
		work[i].cap = capOf[i]
	}

	// Stage 0: probe the group and the analysis cache. Cells without a
	// GroupBy policy have a fully option-derived key (the capture's
	// pre-grouping is pinned by the snapshot identity), so a warm cell is
	// served here without resolving its snapshot or restoring a registry
	// at all. GroupBy cells need the capture's sites to fingerprint the
	// policy; they probe after stage 1.
	if err := parallel.ForCtx(ctx, e.workers(len(res.Cells)), len(res.Cells), func(ctx context.Context, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				return
			}
			if res.Cells[i].Options.GroupBy != nil {
				continue
			}
			keyCell(&res.Cells[i], &work[i], nil)
			if an := e.probe(flights, &work[i]); an != nil {
				res.Cells[i].Analysis, res.Cells[i].AnalysisFromCache, work[i].done = an, true, true
			}
		}
	}); err != nil {
		return nil, err
	}

	// Stage 1: resolve every distinct reference run some cell still
	// needs, and wrap each in one shared replay context. Keys are
	// ordered for a deterministic work list, then grouped by derivation
	// family: within a family, members resolve sequentially so that one
	// capture (cached, disk-indexed, or executed) becomes the base the
	// siblings are derived from — the capture stage executes O(families)
	// kernels, not O(cells). Distinct families fan out over workers.
	needed := make(map[*capture]bool, len(caps))
	for i := range work {
		if !work[i].done {
			needed[work[i].cap] = true
		}
	}
	order := make([]*capture, 0, len(needed))
	for c := range needed {
		order = append(order, c)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].id < order[j].id })
	famIndex := make(map[string]int)
	var fams [][]*capture
	for _, c := range order {
		fid := c.key.Family().ID()
		fi, ok := famIndex[fid]
		if !ok {
			fi = len(fams)
			famIndex[fid] = fi
			fams = append(fams, nil)
		}
		fams[fi] = append(fams[fi], c)
	}
	if err := parallel.ForCtx(ctx, e.workers(len(fams)), len(fams), func(ctx context.Context, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				return
			}
			e.resolveFamily(ctx, flights, fams[i])
		}
	}); err != nil {
		return nil, err
	}
	res.Snapshots = len(order)
	for _, c := range order {
		if c.cacheErr != nil {
			res.CacheErrs = append(res.CacheErrs, c.cacheErr)
		}
		if c.err != nil {
			continue
		}
		switch {
		case c.hit:
			res.CacheHits++
		case c.coalesced:
			res.Coalesced++
		case c.derived:
			res.Derived++
			if c.seedDerived {
				res.SeedDerived++
			}
		default:
			res.Executions++
		}
	}

	// GroupBy cells key only now, from their capture's sites, and probe
	// the group and the analysis cache once per distinct key — all before
	// stage 2 starts. Every probe of the run thus precedes every store of
	// it, so whether a cell hits reflects the state at the start of the
	// run, never worker timing.
	var grouped []int
	for i := range work {
		if !work[i].done && res.Cells[i].Options.GroupBy != nil && work[i].cap.err == nil {
			grouped = append(grouped, i)
		}
	}
	if len(grouped) > 0 {
		first := make(map[string]int) // flight key -> its probe's index
		var probes []int              // one cell per distinct key
		for _, i := range grouped {
			keyCell(&res.Cells[i], &work[i], work[i].cap.ctx)
			if _, ok := first[work[i].id]; work[i].haveKey && !ok {
				first[work[i].id] = len(probes)
				probes = append(probes, i)
			}
		}
		hits := make([]*core.Analysis, len(probes))
		if err := parallel.ForCtx(ctx, e.workers(len(probes)), len(probes), func(ctx context.Context, _, lo, hi int) {
			for t := lo; t < hi; t++ {
				if ctx.Err() != nil {
					return
				}
				hits[t] = e.probe(flights, &work[probes[t]])
			}
		}); err != nil {
			return nil, err
		}
		for _, i := range grouped {
			if t, ok := first[work[i].id]; ok && hits[t] != nil {
				res.Cells[i].Analysis, res.Cells[i].AnalysisFromCache = hits[t], true
			}
		}
	}

	// Stage 2: replay every remaining cell through its capture's shared
	// context and publish fresh analyses back. Cells sharing one analysis
	// key share one computation (the flight group), so within a run — and,
	// with a shared group, across concurrent runs — each placement space
	// is probed and swept at most once. Fan over the cells stage 0 left
	// only: in a partially warm campaign the cold cells are often
	// contiguous (one new workload's block), and a static partition over
	// all cells would hand them to one worker.
	todo := make([]int, 0, len(res.Cells))
	for i := range work {
		if !work[i].done {
			todo = append(todo, i)
		}
	}
	if err := parallel.ForCtx(ctx, e.workers(len(todo)), len(todo), func(ctx context.Context, _, lo, hi int) {
		for t := lo; t < hi; t++ {
			if ctx.Err() != nil {
				return
			}
			i := todo[t]
			cell := &res.Cells[i]
			c := work[i].cap
			if c.err != nil {
				cell.Err = c.err
				continue
			}
			cell.FromCache = c.hit
			cell.Derived = c.derived
			cell.SeedDerived = c.seedDerived
			cell.Coalesced = c.coalesced
			if cell.AnalysisFromCache {
				continue // served by the GroupBy probe
			}
			if !work[i].haveKey {
				// A policy that could not be fingerprinted: compute
				// privately, with the same panic isolation a flight
				// provides.
				cell.Analysis, cell.Err = safeAnalyze(ctx, c.ctx, cell.Options)
				continue
			}
			val, fromCache, _, err := flights.do(ctx, work[i].id, func(fctx context.Context) (any, bool, error) {
				an, aerr := core.NewContextReplay(c.ctx, cell.Options).AnalyzeContext(fctx)
				if aerr != nil {
					return nil, false, aerr
				}
				if e.Analyses != nil {
					// A failed write degrades the cache, not the campaign.
					if err := e.Analyses.Store(work[i].key, an); err != nil && work[i].aErr == nil {
						work[i].aErr = err
					}
				}
				return an, false, nil
			})
			if an, ok := val.(*core.Analysis); ok {
				cell.Analysis = an
			}
			cell.Err = err
			cell.AnalysisFromCache = fromCache
		}
	}); err != nil {
		return nil, err
	}
	for i := range work {
		if res.Cells[i].AnalysisFromCache {
			res.AnalysisHits++
		}
		if work[i].aErr != nil {
			res.CacheErrs = append(res.CacheErrs, work[i].aErr)
		}
	}
	return res, nil
}

// keyCell fingerprints the cell's analysis key — rc supplies the sites
// a GroupBy policy is fingerprinted over, nil for option-keyed cells. A
// policy that cannot be fingerprinted leaves the cell unkeyed.
func keyCell(cell *Cell, w *cellWork, rc *core.ReplayContext) {
	var sites []shim.SiteGroup
	if rc != nil {
		sites = rc.Sites()
	}
	if key, err := core.AnalysisKeyFor(cell.Workload, cell.Options, sites); err == nil {
		w.key, w.id, w.haveKey = key, "an/"+key.ID(), true
	}
}

// probe serves a keyed cell's analysis from the group's completed
// entries or the analysis cache, nil on a miss. A disk hit is retained in
// the group, so the next request for the key is a memory hit. A
// present-but-unreadable disk entry is recorded as a non-fatal
// degradation and treated as a miss.
func (e *Engine) probe(flights *FlightGroup, w *cellWork) *core.Analysis {
	if !w.haveKey {
		return nil
	}
	if val, ok := flights.lookup(w.id); ok {
		return val.(*core.Analysis)
	}
	if e.Analyses == nil {
		return nil
	}
	an, hit, err := e.Analyses.Load(w.key)
	if err != nil {
		w.aErr = err
		return nil
	}
	if !hit {
		return nil
	}
	flights.add(w.id, an)
	return an
}

// safeAnalyze replays one cell's analysis with panic isolation: a
// poisoned cell fails that cell with an error (counted in
// RecoveredPanics), never the process. Flight-managed cells get the
// identical protection from the flight's own recovery.
func safeAnalyze(ctx context.Context, rc *core.ReplayContext, opts core.Options) (an *core.Analysis, err error) {
	defer func() {
		if r := recover(); r != nil {
			recoveredPanics.Add(1)
			an, err = nil, fmt.Errorf("campaign: analysis panicked: %v", r)
		}
	}()
	return core.NewContextReplay(rc, opts).AnalyzeContext(ctx)
}

// resolveFamily fills one derivation family's captures — and their
// shared replay contexts. Members are first served from the group's
// completed entries and the exact-key disk cache; the remainder derive
// from a resolved sibling (or, when the whole family missed, from a
// family-index neighbour on disk) whenever the workload declares the
// family transforms, and only the residue executes kernels. Derivation
// refusals — a workload without the interfaces, or a base that lacks a
// shape the target needs — fall back to execution per member, so the
// result set is identical to the pre-derivation engine's; members
// resolve in deterministic (sorted-key) order for any worker count.
//
// Each member's derive-or-execute step runs inside the flight group: in
// a shared group, a concurrent run needing the same capture blocks on
// this run's computation and shares its snapshot and replay context
// instead of executing the kernel again.
func (e *Engine) resolveFamily(ctx context.Context, flights *FlightGroup, members []*capture) {
	var pending []*capture
	for _, c := range members {
		if !e.loadCapture(flights, c) {
			pending = append(pending, c)
		}
	}
	if len(pending) == 0 {
		return
	}
	// Derivation bases, in resolution order: cache-resolved members
	// first, then (if the whole family missed) the first loadable
	// neighbour the on-disk family index knows about, then whatever
	// this run is forced to execute below.
	var bases []*trace.Snapshot
	for _, c := range members {
		if c.snap != nil {
			bases = append(bases, c.snap)
		}
	}
	if len(bases) == 0 && e.Cache != nil {
		if snap, ok := e.Cache.FamilyBase(pending[0].key); ok {
			bases = append(bases, snap)
		}
	}
	for _, c := range pending {
		if ctx.Err() != nil {
			return
		}
		if c.err != nil {
			continue
		}
		c := c
		val, _, shared, err := flights.do(ctx, c.id, func(fctx context.Context) (any, bool, error) {
			if !e.deriveCapture(fctx, c, bases) {
				e.executeCapture(fctx, c)
			}
			if c.err != nil {
				return nil, false, c.err
			}
			return capOutcome{snap: c.snap, ctx: c.ctx}, false, nil
		})
		if ctx.Err() != nil {
			// Cancelled: this caller may have detached from a flight that
			// is still computing on behalf of other runs — and still
			// writing c — so leave the capture untouched. The run's result
			// is discarded anyway.
			return
		}
		if err != nil {
			// Covers errors the fn could not record on c itself, notably
			// a recovered panic (which unwinds past the closure before
			// executeCapture's own error handling runs).
			if c.err == nil {
				c.err = err
			}
			continue
		}
		if shared {
			// Another run resolved this capture concurrently: adopt its
			// shared snapshot and context.
			out := val.(capOutcome)
			c.snap, c.ctx, c.coalesced = out.snap, out.ctx, true
		}
		if c.err == nil && c.snap != nil && !c.derived && !c.coalesced {
			// A freshly executed member is the preferred base for the
			// rest of the family: it is in-matrix and maximally fresh.
			bases = append(bases, c.snap)
		}
	}
}

// deriveCapture tries to synthesize the capture from one of the bases,
// publishing a success into the disk cache like any other fresh capture
// (the flight retains it in memory). It reports whether the capture was
// resolved. A dead ctx refuses derivation (the caller's executeCapture
// fallback refuses too, so the cancelled flight resolves nothing).
func (e *Engine) deriveCapture(ctx context.Context, c *capture, bases []*trace.Snapshot) bool {
	if ctx.Err() != nil {
		return false
	}
	for _, b := range bases {
		snap, err := core.DeriveSnapshot(b, c.factory(), c.opts)
		if err != nil {
			continue // refusal: try the next base, else execute
		}
		c.snap, c.derived = snap, true
		c.seedDerived = snap.Meta.Seed != b.Meta.Seed
		if e.Cache != nil {
			if err := e.Cache.Store(c.key, snap); err != nil && c.cacheErr == nil {
				c.cacheErr = err
			}
		}
		e.finishContext(c)
		return true
	}
	return false
}

// loadCapture serves a capture — and its shared replay context — from
// the group's completed entries or the exact-key disk cache, reporting
// whether it resolved. A disk hit is retained in the group, so the next
// request for the key is a memory hit. A corrupt cache entry is treated
// as a miss (recorded as degradation) and later overwritten.
func (e *Engine) loadCapture(flights *FlightGroup, c *capture) bool {
	if val, ok := flights.lookup(c.id); ok {
		out := val.(capOutcome)
		c.snap, c.ctx, c.hit = out.snap, out.ctx, true
		return true
	}
	if e.Cache == nil {
		return false
	}
	snap, ok, err := e.Cache.Load(c.key)
	if err != nil || !ok {
		// Entry unreadable or mismatched: surface the degradation, fall
		// through, and recapture over it.
		c.cacheErr = err
		return false
	}
	c.snap, c.hit = snap, true
	if e.finishContext(c) {
		flights.add(c.id, capOutcome{snap: c.snap, ctx: c.ctx})
	}
	return true
}

// executeCapture fills a capture by running the kernel — the only place
// the campaign engine executes one. ctx is polled before the kernel
// runs and before the count pass (core.CaptureContext); the kernel
// itself is never interrupted.
func (e *Engine) executeCapture(ctx context.Context, c *capture) {
	w := c.factory()
	if w.Name() != c.key.Workload {
		c.err = fmt.Errorf("campaign: factory for %q built workload %q", c.key.Workload, w.Name())
		return
	}
	snap, err := core.CaptureContext(ctx, w, c.opts)
	if err != nil {
		c.err = err
		return
	}
	c.snap = snap
	if e.Cache != nil {
		// A failed write degrades the cache, not the campaign: the
		// capture in hand is valid and the cells proceed from it. Keep
		// any load error too — both describe the degradation.
		if err := e.Cache.Store(c.key, snap); err != nil && c.cacheErr == nil {
			c.cacheErr = err
		}
	}
	e.finishContext(c)
}

// finishContext builds the capture's shared replay context, reporting
// whether it succeeded.
func (e *Engine) finishContext(c *capture) bool {
	ctx, err := core.NewContext(c.snap)
	if err != nil {
		c.err = err
		return false
	}
	c.ctx = ctx
	return true
}

func (e *Engine) workers(n int) int {
	w := e.Parallelism
	if w < 1 {
		w = parallel.DefaultThreads()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}
