// Package hmpt is the public API of the Heterogeneous Memory Pool Tuning
// library — a Go reproduction of Vaverka, Vysocky and Riha,
// "Heterogeneous Memory Pool Tuning" (IPPS 2025, arXiv:2505.14294).
//
// The library analyses and tunes the placement of an application's
// individual allocations across heterogeneous memory pools (HBM + DDR on
// an Intel Xeon Max model). Hardware is simulated: a calibrated analytic
// machine model (bandwidths, latencies, per-thread memory-level
// parallelism, cache hierarchy) stands in for the paper's dual Xeon Max
// 9468 node, and a SHIM-style allocator plus an IBS-style sampler stand
// in for the LD_PRELOAD interceptor and Linux perf.
//
// Quick start:
//
//	w, _ := hmpt.NewWorkload("npb.mg")
//	an, err := hmpt.Analyze(w, hmpt.Options{Seed: 1})
//	if err != nil { ... }
//	max, cfg := an.MaxSpeedup()
//	fmt.Printf("max %.2fx with %s in HBM\n", max, cfg.Label)
//
// See examples/ for runnable programs and DESIGN.md for the system
// inventory and the experiment index.
package hmpt

import (
	"context"

	"hmpt/internal/cachegc"
	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/fsatomic"
	"hmpt/internal/memsim"
	"hmpt/internal/trace"
	"hmpt/internal/workloads"

	// Register the benchmark suite with the workload registry.
	_ "hmpt/internal/workloads/chase"
	_ "hmpt/internal/workloads/kwave"
	_ "hmpt/internal/workloads/npbbt"
	_ "hmpt/internal/workloads/npbis"
	_ "hmpt/internal/workloads/npblu"
	_ "hmpt/internal/workloads/npbmg"
	_ "hmpt/internal/workloads/npbsp"
	_ "hmpt/internal/workloads/npbua"
	_ "hmpt/internal/workloads/stream"
	_ "hmpt/internal/workloads/synth"
)

// Re-exported core types: the tuner, its results, and workload contract.
type (
	// Options configures an analysis; see core.Options.
	Options = core.Options
	// Analysis is a complete tuning result with the paper's detailed
	// view, summary view, Table II metrics and placement planners.
	Analysis = core.Analysis
	// Config is one measured placement configuration.
	Config = core.Config
	// Group is one allocation group of the configuration space.
	Group = core.Group
	// Plan is a recommended placement under a capacity budget.
	Plan = core.Plan
	// Workload is the contract benchmarks implement; see
	// internal/workloads for the environment handed to Setup/Run.
	Workload = workloads.Workload
	// Env is the execution environment of a workload run.
	Env = workloads.Env
	// Platform describes the simulated machine.
	Platform = memsim.Platform
)

// Re-exported snapshot and campaign types: captured reference runs, the
// content-addressed snapshot cache, and the scenario-matrix engine.
type (
	// Snapshot is a captured reference run (phase trace + allocation
	// registry + metadata); replaying it is byte-identical to
	// re-executing the kernel. The stored trace is canonical: each
	// distinct phase shape appears once with its total multiplicity, so
	// snapshot size and every downstream pass are O(unique phases) in
	// the kernel's iteration count (see Options.Iterations).
	Snapshot = trace.Snapshot
	// SnapshotCache is the content-addressed on-disk snapshot store.
	SnapshotCache = trace.SnapshotCache
	// ReplayContext is the shared replay environment of one capture:
	// restored registry, trace, sampling report and compiled sweep
	// evaluators, built once and reused read-only by every analysis
	// replaying the capture.
	ReplayContext = core.ReplayContext
	// AnalysisCache is the content-addressed on-disk analysis store —
	// the third caching layer: a campaign cell served from it runs zero
	// kernel executions, zero sampling passes and zero placement
	// costing.
	AnalysisCache = core.AnalysisCache
	// CampaignMatrix declares a workload × platform × variant space.
	CampaignMatrix = campaign.Matrix
	// CampaignWorkload is one workload row of a campaign matrix.
	CampaignWorkload = campaign.Workload
	// CampaignPlatform is one platform-preset column.
	CampaignPlatform = campaign.Platform
	// CampaignVariant is one tuner-option overlay.
	CampaignVariant = campaign.Variant
	// CampaignCell is one evaluated scenario.
	CampaignCell = campaign.Cell
	// CampaignResult is the outcome of a campaign run; its Work field
	// counts the kernels, sampling passes, placement passes and
	// derivations the run did. A warm campaign does none of them.
	CampaignResult = campaign.Result
	// CampaignEngine evaluates campaign matrices; configure Cache and
	// Parallelism directly.
	CampaignEngine = campaign.Engine
	// FlightGroup is the engine's in-process store
	// (CampaignEngine.Flights): it coalesces concurrent identical
	// capture/analysis computations across engine runs — the serving
	// layer's exactly-once layer — and retains their results and every
	// disk-cache hit. See NewFlightGroup.
	FlightGroup = campaign.FlightGroup
	// CacheStats is a point-in-time traffic snapshot of one cache rung
	// (SnapshotCache.Stats, AnalysisCache.Stats).
	CacheStats = trace.CacheStats
	// CachePublisher is the resilient write path of a cache rung
	// (SnapshotCache.Publisher, AnalysisCache.Publisher): transient
	// publish failures retry with backoff, persistent ones demote the
	// rung to degraded (read-only / compute-through) mode until a timed
	// re-probe succeeds.
	CachePublisher = fsatomic.Publisher
	// CachePublisherStats counts a publisher's resilience events:
	// retries, absorbed faults, demotions, re-probes, recoveries and
	// suppressed writes.
	CachePublisherStats = fsatomic.PublisherStats
)

// Cache lifecycle types: on-disk usage accounting and garbage
// collection across the snapshot and analysis rungs.
type (
	// CacheUsage is a full usage scan of the cache tree, by rung.
	CacheUsage = cachegc.Usage
	// CacheRungUsage is one rung's entry/byte accounting, including the
	// dead subset no current build can read.
	CacheRungUsage = cachegc.RungUsage
	// CacheGCOptions configures a scan or collection pass.
	CacheGCOptions = cachegc.Options
	// CacheGCReport is the outcome of one collection pass.
	CacheGCReport = cachegc.Report
)

// CacheRungStats bundles one *live* cache rung's observable state: the
// traffic counters, the publisher's resilience counters, and whether
// the rung is currently degraded to read-only/compute-through mode —
// the per-rung surface `hmpt cache stats` reports for the on-disk side
// and a serving daemon exports per scrape.
type CacheRungStats struct {
	Stats     CacheStats
	Publisher CachePublisherStats
	Degraded  bool
}

// SnapshotCacheStats captures the snapshot rung's live stats.
func SnapshotCacheStats(c *SnapshotCache) CacheRungStats {
	return CacheRungStats{Stats: c.Stats(), Publisher: c.Publisher().Stats(), Degraded: c.Degraded()}
}

// AnalysisCacheStats captures the analysis rung's live stats.
func AnalysisCacheStats(c *AnalysisCache) CacheRungStats {
	return CacheRungStats{Stats: CacheStats(c.Stats()), Publisher: c.Publisher().Stats(), Degraded: c.Degraded()}
}

// ScanCacheUsage scans the cache tree without collecting anything.
func ScanCacheUsage(opts CacheGCOptions) (*CacheUsage, error) { return cachegc.Scan(opts) }

// CollectCaches runs one garbage-collection pass: dead entries (torn,
// version-orphaned or of a retired cache layout — unreadable by any
// current build) and aged staging files go unconditionally, then live
// entries are evicted least-recently-accessed-first down to
// Options.MaxBytes. Safe to run concurrently with serving daemons and
// campaigns: only whole published entries are removed, and readers
// treat a vanished entry as a miss.
func CollectCaches(opts CacheGCOptions) (*CacheGCReport, error) { return cachegc.Run(opts) }

// ErrCacheDegraded is returned by cache stores fast-failed because the
// rung's publisher is in degraded mode; campaigns absorb it (the
// computed value is still served) and the rung re-probes on its own.
var ErrCacheDegraded = fsatomic.ErrDegraded

// NewFlightGroup returns an empty single-flight group to share across
// engines: N concurrent runs needing the same capture or analysis
// execute it once and share the result, and later runs are served from
// the retained entry.
func NewFlightGroup() *FlightGroup { return campaign.NewFlightGroup() }

// XeonMax9468 returns the single-socket Intel Xeon Max 9468 platform
// model used by all paper experiments.
func XeonMax9468() *Platform { return memsim.XeonMax9468() }

// DualXeonMax9468 returns the dual-socket server of the paper's Fig. 1.
func DualXeonMax9468() *Platform { return memsim.DualXeonMax9468() }

// Analyze runs the full tuning pipeline (reference run, allocation
// capture, IBS sampling, grouping, exhaustive 2^|AG| placement sweep)
// for the workload and returns the analysis.
func Analyze(w Workload, opts Options) (*Analysis, error) {
	return core.New(w, opts).Analyze()
}

// AnalyzeContext is Analyze under a context: cancellation or deadline
// expiry stops the pipeline between stages and returns ctx.Err().
func AnalyzeContext(ctx context.Context, w Workload, opts Options) (*Analysis, error) {
	return core.New(w, opts).AnalyzeContext(ctx)
}

// Capture executes the workload's kernel once — the reference stage of
// Analyze — and returns the run as a replayable snapshot carrying the
// canonical deduplicated trace.
func Capture(w Workload, opts Options) (*Snapshot, error) {
	return core.Capture(w, opts)
}

// Replay analyses a captured snapshot without executing any kernel. The
// result is byte-identical to Analyze with the capture's options.
func Replay(snap *Snapshot, opts Options) (*Analysis, error) {
	return core.NewReplay(snap, opts).Analyze()
}

// NewSnapshotCache opens (creating if needed) a content-addressed
// snapshot cache rooted at dir, for sharing captured reference runs
// across processes and campaign runs.
func NewSnapshotCache(dir string) (*SnapshotCache, error) {
	return trace.NewSnapshotCache(dir)
}

// NewAnalysisCache opens (creating if needed) a content-addressed
// analysis cache rooted at dir, for sharing complete analyses across
// processes and campaign runs (CampaignEngine.Analyses). A campaign
// cell served from it runs zero placement costing.
func NewAnalysisCache(dir string) (*AnalysisCache, error) {
	return core.NewAnalysisCache(dir)
}

// NewContext builds the shared replay environment of a snapshot; see
// ReplayContext. ContextReplay analyses through it.
func NewContext(snap *Snapshot) (*ReplayContext, error) {
	return core.NewContext(snap)
}

// ContextReplay analyses a capture through its shared replay context
// without re-restoring the registry or re-compiling sweep evaluators.
// The result is byte-identical to Replay of the same snapshot/options.
func ContextReplay(ctx *ReplayContext, opts Options) (*Analysis, error) {
	return core.NewContextReplay(ctx, opts).Analyze()
}

// RunCampaign evaluates a scenario matrix with default engine settings:
// each kernel executes at most once, cells fan out over all cores. Use
// CampaignEngine directly for a snapshot cache or a worker cap.
func RunCampaign(m CampaignMatrix) (*CampaignResult, error) {
	return (&campaign.Engine{}).Run(m)
}

// RunCampaignContext is RunCampaign under a context: cancellation or
// deadline expiry stops the fan-out mid-matrix (no new cells start,
// in-flight cells wind down) and returns ctx.Err(), leaving any shared
// cache tree consistent.
func RunCampaignContext(ctx context.Context, m CampaignMatrix) (*CampaignResult, error) {
	return (&campaign.Engine{}).RunContext(ctx, m)
}

// DeriveSnapshot transposes a captured snapshot to a neighbouring
// (iterations, scale, seed) key of its derivation family without
// executing the kernel; the result is byte-identical to a real Capture
// under opts. w must be a fresh instance of the captured configuration.
func DeriveSnapshot(base *Snapshot, w Workload, opts Options) (*Snapshot, error) {
	return core.DeriveSnapshot(base, w, opts)
}

// NewWorkload instantiates a registered benchmark by name; see
// WorkloadNames for the registry contents.
func NewWorkload(name string) (Workload, error) { return workloads.New(name) }

// WorkloadNames lists the registered benchmarks.
func WorkloadNames() []string { return workloads.Names() }

// DescribeWorkload returns the one-line description of a registered
// benchmark.
func DescribeWorkload(name string) string { return workloads.Describe(name) }

// NewEnv builds a workload environment for direct (non-tuner) use:
// threads is the simulated thread count (0 = all cores), scale the
// simulated-size multiplier, seed the determinism root.
func NewEnv(threads int, scale float64, seed uint64) *Env {
	return workloads.NewEnv(threads, scale, seed)
}
