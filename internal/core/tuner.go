// Package core implements the paper's contribution: the analysis and
// tuning tool for application data placement on heterogeneous memory
// pools (§III).
//
// Given a workload, the Tuner performs the full pipeline of Fig. 6:
// it runs the workload once with all data in DDR (the reference),
// captures every allocation through the shim, samples memory accesses
// with the IBS model, filters and groups allocations (top-7 by
// individual performance impact plus a "rest" group, §III-A), and then
// measures every one of the 2^|AG| placement configurations, n runs
// each. The result is an Analysis exposing the paper's detailed view
// (Fig. 7a), summary view (Fig. 7b), and the Table II metrics.
//
// The probe and sweep stages run on the memsim sweep engine: the phase
// trace is compiled once per group partition, each configuration's
// deterministic time is evaluated incrementally in Gray-code order (one
// group flips per step), the n measurement-noise draws are replayed
// against the one deterministic time, and the mask space is fanned out
// over internal/parallel workers. All of this is bit-identical to the
// naive per-mask costing path, which AnalyzeReference retains as the
// equivalence oracle.
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"hmpt/internal/ibs"
	"hmpt/internal/memsim"
	"hmpt/internal/parallel"
	"hmpt/internal/shim"
	"hmpt/internal/stats"
	"hmpt/internal/trace"
	"hmpt/internal/units"
	"hmpt/internal/workloads"
	"hmpt/internal/xrand"
)

// Options configures a tuning analysis.
type Options struct {
	// Platform under test; nil selects the single-socket Xeon Max 9468.
	Platform *memsim.Platform
	// Threads used to cost phases that do not pin their own count
	// (0 = all cores).
	Threads int
	// Runs is the number of measured runs per configuration (paper's n;
	// default 3).
	Runs int
	// MaxGroups caps the number of allocation groups including the
	// "rest" group (paper aims for 8; default 8).
	MaxGroups int
	// FilterBelow folds allocations smaller than this size into the
	// rest group. The default is the platform's per-core L2 (§III-A:
	// "allocations smaller than L2 or L3 cache size can be assumed to
	// be insignificant").
	FilterBelow units.Bytes
	// GroupBy optionally merges allocation sites into named pre-groups
	// before impact ranking (used for k-Wave's vector fields, §IV-B).
	// It receives the allocation label and returns a group key; an
	// empty key leaves the site ungrouped.
	GroupBy func(label string) string
	// Scale multiplies workload-internal simulated sizes (passed
	// through to the environment; most workloads manage their own).
	Scale float64
	// Seed makes the whole analysis reproducible.
	Seed uint64
	// SweepParallelism caps the worker goroutines of the configuration
	// sweep (0 = GOMAXPROCS). The sweep is deterministic for any value:
	// every configuration owns a pre-split RNG and a pre-assigned
	// result slot, so the worker count changes scheduling only.
	SweepParallelism int
	// SamplePeriod is the IBS sampling period in cache lines per sample
	// (0 = the paper driver's default, 64 Ki lines). It is a capture
	// input: the sample counts embedded in a snapshot are keyed by it,
	// so a non-default period addresses a different snapshot.
	SamplePeriod int64
	// SampleBudget bounds the per-run sample count (0 = the default
	// 200k perf buffer budget); the period is raised to stay within it.
	// Like SamplePeriod it participates in snapshot identity.
	SampleBudget int
	// Iterations overrides the workload's configured iteration/timestep
	// count (0 = the workload default). It is a capture input like Seed:
	// a different timestep count executes a different kernel, so it
	// participates in snapshot identity. Thanks to phase deduplication
	// the trace, the snapshot and every downstream pass stay O(unique
	// phases) regardless of this count — only kernel execution itself
	// scales with it.
	Iterations int
	// Snapshot injects a captured reference run (see Capture): the
	// analysis replays the snapshot's trace and allocation registry
	// instead of executing the kernel. The snapshot's capture inputs
	// (workload, config tag, threads, scale, seed) must match the
	// options; the replayed analysis is byte-identical to a live one.
	Snapshot *trace.Snapshot
	// ConfigTag names the workload instance configuration in snapshot
	// keys and metadata (e.g. "fast" vs "full" experiment instances).
	// It never affects analysis results, only snapshot identity.
	ConfigTag string
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Platform == nil {
		out.Platform = memsim.XeonMax9468()
	}
	if out.Runs <= 0 {
		out.Runs = 3
	}
	if out.MaxGroups <= 1 {
		out.MaxGroups = 8
	}
	if out.FilterBelow <= 0 {
		out.FilterBelow = defaultFilter(out.Platform)
	}
	if out.Scale <= 0 {
		out.Scale = 1
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	// Sampler controls are normalised here so that snapshot keys are
	// canonical: "unset" and "explicitly the default" address the same
	// capture.
	if out.SamplePeriod <= 0 {
		out.SamplePeriod = ibs.DefaultPeriod
	}
	if out.SampleBudget <= 0 {
		out.SampleBudget = ibs.DefaultMaxSamples
	}
	return out
}

// sampler builds the IBS sampler the options configure.
func (o *Options) sampler() *ibs.Sampler {
	return &ibs.Sampler{Period: o.SamplePeriod, MaxSamples: o.SampleBudget}
}

func defaultFilter(p *memsim.Platform) units.Bytes {
	for _, c := range p.Caches {
		if c.Name == "L2" {
			return c.Size
		}
	}
	return 2 * units.MiB
}

// Group is one allocation group of the configuration space.
type Group struct {
	Index int
	Label string
	Rest  bool // the fold-in group of filtered/insignificant allocations
	// Allocs are the member allocation IDs (aliased sites expanded).
	Allocs []shim.AllocID
	// SimBytes is the group's simulated footprint; Frac its share of
	// the application total.
	SimBytes units.Bytes
	Frac     float64
	// Density is the group's share of IBS access samples.
	Density float64
	// SoloSpeedup is the measured speedup with only this group in HBM —
	// the individual performance impact used for ranking.
	SoloSpeedup float64
}

// Config is one measured placement configuration: the groups in Mask are
// in HBM, everything else in DDR.
type Config struct {
	Mask   uint32
	Groups []int // indices of groups in HBM
	Label  string
	// HBMBytes/HBMFrac: simulated data volume and fraction placed in HBM.
	HBMBytes units.Bytes
	HBMFrac  float64
	// SampleFrac is the fraction of access samples landing in HBM under
	// this configuration (blue crosses of Fig. 7a).
	SampleFrac float64
	// Times are the per-run measured (simulated) times.
	Times    []units.Duration
	MeanTime units.Duration
	// Speedup is the measured speedup vs the all-DDR reference;
	// SpeedupCI its 95 % half-width; EstSpeedup the linear estimate.
	Speedup    float64
	SpeedupCI  float64
	EstSpeedup float64
	// Feasible is false when the configuration exceeds HBM capacity.
	Feasible bool
}

// Analysis is the complete result of tuning one workload.
type Analysis struct {
	Workload   string
	Platform   string
	TotalBytes units.Bytes
	Threads    int
	Runs       int
	// BaselineTime is the all-DDR reference (mean over runs).
	BaselineTime units.Duration
	Groups       []Group
	// Configs holds all 2^|Groups| configurations, indexed by mask.
	Configs []Config
	// FilteredAllocs is the number of distinct allocation sites that
	// survived filtering (Table I's "Filtered Allocations").
	FilteredAllocs int
	// TotalAllocs is the number of distinct allocation sites captured.
	TotalAllocs int
	// SampleCount is the number of IBS samples attributed.
	SampleCount int
}

// Tuner drives the analysis of one workload.
type Tuner struct {
	opts Options
	w    workloads.Workload // nil when replaying a snapshot via NewReplay
	name string
	// ctx is the replay environment of a snapshot replay: the shared one
	// NewContextReplay attached, or a private one reference builds on
	// first use. Registry, trace, sampling report and compiled
	// evaluators come from it. Nil for a live run.
	ctx *ReplayContext
	// platformFP is the platform's content fingerprint, computed once
	// per snapshot replay (in analyze) and reused by every context-memo
	// lookup of the run.
	platformFP string
}

// New returns a tuner for the workload with the given options. When
// opts.Snapshot is set the workload's kernel is not executed; the
// snapshot is replayed in its place.
func New(w workloads.Workload, opts Options) *Tuner {
	return &Tuner{opts: opts.withDefaults(), w: w, name: w.Name()}
}

// Analyze runs the full pipeline and returns the analysis. The probe and
// configuration-sweep stages run on the compiled sweep engine; the
// result is bit-identical to AnalyzeReference.
func (t *Tuner) Analyze() (*Analysis, error) { return t.analyze(context.Background(), true) }

// AnalyzeContext is Analyze with cooperative cancellation: the pipeline
// polls ctx between stages, between sweep masks, and between probe
// fan-out items, returning ctx.Err() as soon as it observes the context
// dead. A completed analysis is byte-identical to Analyze — cancellation
// either returns an error or has no effect on the result; kernel
// execution itself (the reference stage's single run) is never
// interrupted mid-kernel.
func (t *Tuner) AnalyzeContext(ctx context.Context) (*Analysis, error) {
	return t.analyze(ctx, true)
}

// AnalyzeReference runs the identical pipeline through the pre-engine
// costing path: a fresh Machine.Cost per probe and per configuration
// run. It is retained as the bit-exactness oracle the equivalence tests
// and benchmarks compare the sweep engine against.
func (t *Tuner) AnalyzeReference() (*Analysis, error) {
	return t.analyze(context.Background(), false)
}

func (t *Tuner) analyze(ctx context.Context, engine bool) (*Analysis, error) {
	o := t.opts
	p := o.Platform
	machine := memsim.NewMachine(p)
	if o.Snapshot != nil {
		t.platformFP = p.Fingerprint()
	}
	rng := xrand.New(o.Seed)

	// 1. Reference run: execute the real kernel once, capturing
	// allocations and the phase trace — or replay an injected snapshot
	// of exactly that capture. Both paths consume the identical RNG
	// stream, so everything downstream is byte-identical.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	envSeed := rng.Split(1).Uint64()
	al, tr, err := t.reference(ctx, envSeed)
	if err != nil {
		return nil, err
	}
	if len(tr.Phases) == 0 {
		return nil, fmt.Errorf("core: workload %s emitted no phases", t.name)
	}

	ddr := p.MustPool(memsim.DDR)
	hbm := p.MustPool(memsim.HBM)
	allDDR := memsim.NewSimplePlacement(len(p.Pools), ddr)

	// 2. Baseline measurement (n runs).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	runRNG := rng.Split(2)
	baseline, err := t.measure(machine, tr, allDDR, runRNG)
	if err != nil {
		return nil, err
	}

	// 3. IBS sampling of the baseline run: replayed from the snapshot's
	// embedded sample counts when present (no sampling pass at all), run
	// on the batched engine otherwise — or on the per-sample reference
	// loop when the naive oracle path is selected. All three produce
	// identical count-derived statistics, which is all the pipeline
	// consumes downstream. The RNG split is consumed either way so the
	// downstream stream stays byte-identical across paths.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	smpRNG := rng.Split(3)
	rep, err := t.sampleReport(ctx, tr, al, machine, allDDR, smpRNG, engine)
	if err != nil {
		return nil, fmt.Errorf("core: sampling: %w", err)
	}

	// 4. Build allocation groups.
	groups, filtered, totalSites, err := t.buildGroups(ctx, machine, tr, al, rep, baseline.Mean(), ddr, hbm, rng.Split(4), engine)
	if err != nil {
		return nil, err
	}

	total := al.TotalSimBytes()
	an := &Analysis{
		Workload:       t.name,
		Platform:       p.Name,
		TotalBytes:     total,
		Threads:        o.Threads,
		Runs:           o.Runs,
		BaselineTime:   units.Duration(baseline.Mean()),
		Groups:         groups,
		FilteredAllocs: filtered,
		TotalAllocs:    totalSites,
		SampleCount:    rep.Total,
	}

	// 5. Exhaustive configuration sweep: 2^|AG| masks.
	k := len(groups)
	if k > 16 {
		return nil, fmt.Errorf("core: %d groups would enumerate 2^%d configurations", k, k)
	}
	hbmCap := p.Pools[hbm].Capacity
	an.Configs = make([]Config, 1<<uint(k))
	cfgRNG := rng.Split(5)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	LedgerFrom(ctx).Add(SweepEvaluation)
	if !engine {
		for mask := uint32(0); mask < 1<<uint(k); mask++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cfg, err := t.measureConfig(machine, tr, groups, mask, total,
				baseline.Mean(), hbmCap, ddr, hbm, cfgRNG.Split(uint64(mask)))
			if err != nil {
				return nil, err
			}
			an.Configs[mask] = cfg
		}
		return an, nil
	}
	if err := t.sweepConfigs(ctx, an, machine, tr, groups, total, baseline.Mean(), hbmCap, ddr, hbm, cfgRNG); err != nil {
		return nil, err
	}
	return an, nil
}

// sampleReport produces the IBS report of the reference run. A snapshot
// carrying sample counts that match this build's sampler version lets
// the analysis skip the sampling pass — no RNG is consumed and no fresh
// counts are derived; the report is reconstructed from the embedded
// counts through an RNG-free validation walk (same O(streams × pools)
// cost class as the engine, and bitwise equal to what it would produce
// under the all-DDR reference placement — the walk is what pins the
// embedding to this trace and re-derives latencies on the replaying
// machine). Otherwise a sampling pass runs: the batched engine on the
// engine path, the per-sample reference loop on the oracle path. Count
// walks and sampling passes are counted on ctx's ledger.
func (t *Tuner) sampleReport(ctx context.Context, tr *trace.Trace, al *shim.Allocator, machine *memsim.Machine,
	allDDR memsim.Placement, rng *xrand.Rand, engine bool) (*ibs.Report, error) {

	if snap := t.opts.Snapshot; snap != nil && snap.Samples != nil &&
		snap.Samples.SamplerVersion == ibs.SamplerVersion {
		// The replay's context (reference attached it) validates the
		// counts once and memoises the report per platform, so cells of
		// one platform share one report.
		return t.ctx.report(ctx, t.platformFP, machine, allDDR)
	}
	LedgerFrom(ctx).Add(SamplePass)
	sampler := t.opts.sampler()
	if engine {
		return sampler.Sample(tr, al, machine, allDDR, rng)
	}
	return sampler.SampleReference(tr, al, machine, allDDR, rng)
}

// sweepConfigs measures every mask on the sweep engine: configurations
// own pre-split RNGs (in the same order the naive loop splits them), the
// mask space is partitioned over workers, and each worker walks its
// slice of the Gray-code sequence so that consecutive masks differ by
// one group flip and only the phases that group touches are re-costed.
// Every config's mask-derived fields are filled before the fan-out
// (configShells), so a worker only replays noise draws into its
// pre-carved Times and derives the statistics: the sweep makes a fixed
// number of allocations however many masks it measures.
// Workers poll ctx between masks: a cancelled sweep abandons its
// remaining masks and the whole analysis returns ctx.Err() — partial
// configs are never observable because the caller discards the result.
func (t *Tuner) sweepConfigs(ctx context.Context, an *Analysis, machine *memsim.Machine, tr *trace.Trace,
	groups []Group, total units.Bytes, baseMean float64, hbmCap units.Bytes,
	ddr, hbm memsim.PoolID, cfgRNG *xrand.Rand) error {

	sets := make([][]shim.AllocID, len(groups))
	for gi := range groups {
		sets[gi] = groups[gi].Allocs
	}
	eng, err := t.compileSweep(machine, tr, sets, ddr)
	if err != nil {
		return fmt.Errorf("core: compiling sweep: %w", err)
	}

	n := len(an.Configs)
	runs := t.opts.Runs
	configShells(an.Configs, groups, total, hbmCap, runs)
	rngs := make([]xrand.Rand, n)
	for mask := range rngs {
		rngs[mask] = cfgRNG.SplitValue(uint64(mask))
	}

	workers := t.opts.SweepParallelism
	if workers < 1 {
		workers = parallel.DefaultThreads()
	}
	if workers > n {
		workers = n
	}
	return parallel.ForCtx(ctx, workers, n, func(ctx context.Context, _, lo, hi int) {
		if lo >= hi {
			return
		}
		ev := eng.Clone()
		draws := make([]float64, runs)
		mask := grayCode(uint32(lo))
		det := ev.EvalMask(mask, ddr, hbm)
		for i := lo; ; {
			if ctx.Err() != nil {
				return
			}
			replayDraws(machine, det, &rngs[mask], draws)
			finishReplayed(&an.Configs[mask], draws, baseMean, groups)
			if i++; i >= hi {
				return
			}
			// Gray-code step: position i flips exactly one group.
			bit := bits.TrailingZeros32(uint32(i))
			mask = grayCode(uint32(i))
			to := ddr
			if mask&(1<<uint(bit)) != 0 {
				to = hbm
			}
			det = ev.Flip(bit, to)
		}
	})
}

// grayCode returns the i-th binary-reflected Gray code; consecutive
// codes differ in exactly bit TrailingZeros(i+1).
func grayCode(i uint32) uint32 { return i ^ (i >> 1) }

// compileSweep compiles the trace against a group partition, through the
// shared context's per-(platform, threads, partition) memo when one is
// attached (the caller receives a private clone) and directly otherwise.
// Both routes are bit-identical: compilation is deterministic in its
// inputs, and a clone shares only the read-only compiled tables.
func (t *Tuner) compileSweep(m *memsim.Machine, tr *trace.Trace, sets [][]shim.AllocID, ddr memsim.PoolID) (*memsim.SweepEvaluator, error) {
	if t.ctx != nil {
		return t.ctx.evaluator(t.platformFP, m, t.opts.Threads, sets, ddr)
	}
	return m.CompileSweep(tr, t.opts.Threads, sets, ddr)
}

// replayDraws replays len(draws) noise draws against one deterministic
// trace time into draws (in seconds), reproducing what that many
// Machine.Cost calls would have measured.
func replayDraws(m *memsim.Machine, det units.Duration, rng *xrand.Rand, draws []float64) {
	for i := range draws {
		draws[i] = m.NoisyTime(det, rng).Seconds()
	}
}

// measure runs the trace Runs times under the placement, returning the
// sample of measured times in seconds.
func (t *Tuner) measure(m *memsim.Machine, tr *trace.Trace, pl memsim.Placement, rng *xrand.Rand) (*stats.Sample, error) {
	s := &stats.Sample{}
	for i := 0; i < t.opts.Runs; i++ {
		res, err := m.Cost(tr, pl, t.opts.Threads, rng)
		if err != nil {
			return nil, fmt.Errorf("core: costing run: %w", err)
		}
		s.Add(res.Time.Seconds())
	}
	return s, nil
}

// placementFor places the allocations of the selected groups in HBM and
// everything else in DDR.
func placementFor(pools int, ddr, hbm memsim.PoolID, groups []Group, mask uint32) *memsim.SimplePlacement {
	pl := memsim.NewSimplePlacement(pools, ddr)
	for gi := range groups {
		if mask&(1<<uint(gi)) == 0 {
			continue
		}
		for _, id := range groups[gi].Allocs {
			pl.Set(id, hbm)
		}
	}
	return pl
}

// configShell builds the placement-derived fields of a Config: member
// groups, HBM footprint, sample fraction, label, and feasibility.
func configShell(groups []Group, mask uint32, total, hbmCap units.Bytes) Config {
	cfg := Config{Mask: mask, Feasible: true}
	for gi := range groups {
		if mask&(1<<uint(gi)) != 0 {
			cfg.Groups = append(cfg.Groups, gi)
			cfg.HBMBytes += groups[gi].SimBytes
			cfg.SampleFrac += groups[gi].Density
		}
	}
	cfg.Label = maskLabel(cfg.Groups)
	if total > 0 {
		cfg.HBMFrac = float64(cfg.HBMBytes) / float64(total)
	}
	if hbmCap > 0 && cfg.HBMBytes > hbmCap {
		cfg.Feasible = false
	}
	return cfg
}

// finishConfig fills the measured statistics and the linear estimate of
// a Config from its run sample.
func finishConfig(cfg *Config, sample *stats.Sample, baseMean float64, groups []Group) {
	cfg.Times = make([]units.Duration, 0, sample.N())
	for _, v := range sample.Values() {
		cfg.Times = append(cfg.Times, units.Duration(v))
	}
	cfg.MeanTime = units.Duration(sample.Mean())
	cfg.Speedup = baseMean / sample.Mean()
	// Propagate the run CI into a speedup CI (first-order).
	if sample.Mean() > 0 {
		cfg.SpeedupCI = cfg.Speedup * sample.CI95() / sample.Mean()
	}
	// Linear estimate (§III-A): combination speedup as the sum of the
	// individual gains, groups assumed independent.
	cfg.EstSpeedup = 1
	for _, gi := range cfg.Groups {
		cfg.EstSpeedup += groups[gi].SoloSpeedup - 1
	}
}

// configShells fills the mask-derived fields of every config — what
// configShell computes for one mask — in one serial pass over the whole
// mask space. Every config's Groups is carved from one backing array,
// every Times (runs entries, left for the sweep to fill) from another,
// and every Label is a substring of one string; each carved slice is
// capped at its own length, so an append to one cannot reach the next.
func configShells(cfgs []Config, groups []Group, total, hbmCap units.Bytes, runs int) {
	members := make([]int, len(groups)*len(cfgs)/2) // each group is in half the masks
	times := make([]units.Duration, runs*len(cfgs))
	var labels strings.Builder
	labels.Grow(labelsLen(len(groups)))
	for mask := range cfgs {
		cfg := &cfgs[mask]
		*cfg = Config{Mask: uint32(mask), Feasible: true}
		if n := bits.OnesCount32(uint32(mask)); n > 0 {
			cfg.Groups, members = members[:0:n], members[n:]
		}
		for gi := range groups {
			if mask&(1<<uint(gi)) != 0 {
				cfg.Groups = append(cfg.Groups, gi)
				cfg.HBMBytes += groups[gi].SimBytes
				cfg.SampleFrac += groups[gi].Density
			}
		}
		// A Builder never rewrites bytes it has written, so the
		// substring stays valid as later labels are appended.
		start := labels.Len()
		writeLabel(&labels, cfg.Groups)
		cfg.Label = labels.String()[start:]
		if total > 0 {
			cfg.HBMFrac = float64(cfg.HBMBytes) / float64(total)
		}
		if hbmCap > 0 && cfg.HBMBytes > hbmCap {
			cfg.Feasible = false
		}
		cfg.Times, times = times[:runs:runs], times[runs:]
	}
}

// writeLabel writes maskLabel(groups) to b.
func writeLabel(b *strings.Builder, groups []int) {
	b.WriteByte('[')
	for i, g := range groups {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(g))
	}
	b.WriteByte(']')
}

// labelsLen is the total length of the labels of all 2^k masks over k
// groups: two brackets per mask, each group's digits and one separator
// in half the masks, less one separator per non-empty mask.
func labelsLen(k int) int {
	n := 1 << uint(k)
	l := 2*n - (n - 1)
	for g := 0; g < k; g++ {
		l += n / 2 * (len(strconv.Itoa(g)) + 1)
	}
	return l
}

// finishReplayed is finishConfig for a config whose Times configShells
// carved: it stores the replayed draws (seconds) and derives MeanTime,
// Speedup, SpeedupCI and EstSpeedup with finishConfig's formulas, in
// finishConfig's evaluation order.
func finishReplayed(cfg *Config, draws []float64, baseMean float64, groups []Group) {
	for i, v := range draws {
		cfg.Times[i] = units.Duration(v)
	}
	mean := stats.Mean(draws)
	cfg.MeanTime = units.Duration(mean)
	cfg.Speedup = baseMean / mean
	if mean > 0 {
		cfg.SpeedupCI = cfg.Speedup * stats.CI95(draws) / mean
	}
	cfg.EstSpeedup = 1
	for _, gi := range cfg.Groups {
		cfg.EstSpeedup += groups[gi].SoloSpeedup - 1
	}
}

// measureConfig is the naive per-mask measurement of AnalyzeReference:
// it builds the configuration's placement and costs every run from
// scratch through Machine.Cost.
func (t *Tuner) measureConfig(m *memsim.Machine, tr *trace.Trace,
	groups []Group, mask uint32, total units.Bytes, baseMean float64,
	hbmCap units.Bytes, ddr, hbm memsim.PoolID, rng *xrand.Rand) (Config, error) {

	cfg := configShell(groups, mask, total, hbmCap)
	pl := placementFor(len(m.P.Pools), ddr, hbm, groups, mask)
	sample, err := t.measure(m, tr, pl, rng)
	if err != nil {
		return Config{}, err
	}
	finishConfig(&cfg, sample, baseMean, groups)
	return cfg, nil
}

// maskLabel renders "[0 1 2]" like the paper's detailed view.
func maskLabel(groups []int) string {
	if len(groups) == 0 {
		return "[]"
	}
	parts := make([]string, len(groups))
	for i, g := range groups {
		parts[i] = fmt.Sprint(g)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// buildGroups performs filtering, optional pre-grouping, impact probing
// and top-k selection (§III-A). With engine set, probes run on a sweep
// evaluator compiled over the pre-groups: successive solo probes differ
// by two group flips, so each probe re-costs only the phases its two
// differing groups touch. Probe workers poll ctx between probes; a
// cancelled probe stage returns ctx.Err().
func (t *Tuner) buildGroups(ctx context.Context, m *memsim.Machine, tr *trace.Trace, al *shim.Allocator,
	rep *ibs.Report, baseMean float64, ddr, hbm memsim.PoolID, rng *xrand.Rand, engine bool) ([]Group, int, int, error) {

	o := t.opts
	LedgerFrom(ctx).Add(SweepEvaluation) // the probe stage is one placement-costing pass
	sites := al.Sites()
	totalSites := len(sites)

	// Pre-group sites: by GroupBy key when provided, else one pre-group
	// per site.
	type pre struct {
		idx    int // index in pres, the engine's group index
		label  string
		allocs []shim.AllocID
		bytes  units.Bytes
	}
	var pres []*pre
	byKey := make(map[string]*pre)
	for _, sg := range sites {
		key := ""
		if o.GroupBy != nil {
			key = o.GroupBy(sg.Label)
		}
		if key == "" {
			pres = append(pres, &pre{label: sg.Label, allocs: sg.Allocs, bytes: sg.SimSize})
			continue
		}
		g, ok := byKey[key]
		if !ok {
			g = &pre{label: key}
			byKey[key] = g
			pres = append(pres, g)
		}
		g.allocs = append(g.allocs, sg.Allocs...)
		g.bytes += sg.SimSize
	}
	for i, g := range pres {
		g.idx = i
	}

	// measureHBM measures the configuration with exactly the given
	// pre-groups in HBM, on the engine when enabled and through fresh
	// Machine.Cost runs otherwise. Both paths are bit-identical.
	var eng *memsim.SweepEvaluator
	inHBM := make([]bool, len(pres))
	var engDet units.Duration
	if engine {
		sets := make([][]shim.AllocID, len(pres))
		for i, g := range pres {
			sets[i] = g.allocs
		}
		var err error
		eng, err = t.compileSweep(m, tr, sets, ddr)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("core: compiling probe sweep: %w", err)
		}
		engDet = eng.EvalGroups(nil, ddr, hbm)
	}
	// It returns the mean measured time in seconds.
	measureHBM := func(hbmPres []*pre, rng *xrand.Rand) (float64, error) {
		if eng != nil {
			want := make([]bool, len(pres))
			for _, g := range hbmPres {
				want[g.idx] = true
			}
			for i := range want {
				if want[i] == inHBM[i] {
					continue
				}
				to := ddr
				if want[i] {
					to = hbm
				}
				engDet = eng.Flip(i, to)
				inHBM[i] = want[i]
			}
			draws := make([]float64, o.Runs)
			replayDraws(m, engDet, rng, draws)
			return stats.Mean(draws), nil
		}
		pl := memsim.NewSimplePlacement(len(m.P.Pools), ddr)
		for _, g := range hbmPres {
			for _, id := range g.allocs {
				pl.Set(id, hbm)
			}
		}
		sample, err := t.measure(m, tr, pl, rng)
		if err != nil {
			return 0, err
		}
		return sample.Mean(), nil
	}

	// Filter: small pre-groups fold into rest.
	var significant []*pre
	var restPres []*pre
	var rest pre
	rest.label = "rest"
	for _, g := range pres {
		if g.bytes < o.FilterBelow {
			rest.allocs = append(rest.allocs, g.allocs...)
			rest.bytes += g.bytes
			restPres = append(restPres, g)
			continue
		}
		significant = append(significant, g)
	}
	filtered := len(significant)

	// Probe individual impact: each significant pre-group alone in HBM.
	// Solo probes are independent, so they fan out over workers: every
	// probe owns a pre-split RNG (split in the serial order, so results
	// are identical for any worker count) and a pre-assigned result
	// slot. Engine workers clone the compiled evaluator and walk their
	// slice with two group flips per step (previous probe out, next one
	// in) — bit-identical to full evaluations by the Flip contract; the
	// oracle path costs each probe's placement from scratch on the
	// stateless Machine.
	type probed struct {
		*pre
		solo float64
	}
	probes := make([]probed, len(significant))
	if len(significant) > 0 {
		probeRNGs := make([]xrand.Rand, len(significant))
		for i := range probeRNGs {
			probeRNGs[i] = rng.SplitValue(uint64(i))
		}
		probeErrs := make([]error, len(significant))
		workers := o.SweepParallelism
		if workers < 1 {
			workers = parallel.DefaultThreads()
		}
		if workers > len(significant) {
			workers = len(significant)
		}
		err := parallel.ForCtx(ctx, workers, len(significant), func(ctx context.Context, _, lo, hi int) {
			if lo >= hi {
				return
			}
			var ev *memsim.SweepEvaluator
			var draws []float64
			inHBM := -1 // pre-group index currently flipped into HBM
			if eng != nil {
				ev = eng.Clone()
				draws = make([]float64, o.Runs)
			}
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					return
				}
				g := significant[i]
				var mean float64
				if ev != nil {
					if inHBM >= 0 {
						ev.Flip(inHBM, ddr)
					}
					det := ev.Flip(g.idx, hbm)
					inHBM = g.idx
					replayDraws(m, det, &probeRNGs[i], draws)
					mean = stats.Mean(draws)
				} else {
					pl := memsim.NewSimplePlacement(len(m.P.Pools), ddr)
					for _, id := range g.allocs {
						pl.Set(id, hbm)
					}
					sample, err := t.measure(m, tr, pl, &probeRNGs[i])
					if err != nil {
						probeErrs[i] = err
						continue
					}
					mean = sample.Mean()
				}
				probes[i] = probed{pre: g, solo: baseMean / mean}
			}
		})
		if err != nil {
			return nil, 0, 0, err
		}
		for i, err := range probeErrs {
			if err != nil {
				return nil, 0, 0, fmt.Errorf("core: probing group %q: %w", significant[i].label, err)
			}
		}
	}
	// Rank by individual impact, ties by bytes then label for determinism.
	sort.SliceStable(probes, func(i, j int) bool {
		if probes[i].solo != probes[j].solo {
			return probes[i].solo > probes[j].solo
		}
		if probes[i].bytes != probes[j].bytes {
			return probes[i].bytes > probes[j].bytes
		}
		return probes[i].label < probes[j].label
	})

	// Keep the top (MaxGroups-1); fold the remainder into rest.
	keep := o.MaxGroups - 1
	if keep > len(probes) {
		keep = len(probes)
	}
	for _, pr := range probes[keep:] {
		rest.allocs = append(rest.allocs, pr.allocs...)
		rest.bytes += pr.bytes
		restPres = append(restPres, pr.pre)
	}
	probes = probes[:keep]

	total := al.TotalSimBytes()
	var groups []Group
	for i, pr := range probes {
		g := Group{
			Index:       i,
			Label:       pr.label,
			Allocs:      pr.allocs,
			SimBytes:    pr.bytes,
			SoloSpeedup: pr.solo,
		}
		if total > 0 {
			g.Frac = float64(pr.bytes) / float64(total)
		}
		for _, id := range pr.allocs {
			if st, ok := rep.ByAlloc[id]; ok {
				g.Density += st.Density
			}
		}
		groups = append(groups, g)
	}
	// Rest group last, if it has any members.
	if len(rest.allocs) > 0 {
		g := Group{
			Index:    len(groups),
			Label:    rest.label,
			Rest:     true,
			Allocs:   rest.allocs,
			SimBytes: rest.bytes,
		}
		if total > 0 {
			g.Frac = float64(rest.bytes) / float64(total)
		}
		for _, id := range rest.allocs {
			if st, ok := rep.ByAlloc[id]; ok {
				g.Density += st.Density
			}
		}
		// Probe the rest group too, so estimates cover it.
		mean, err := measureHBM(restPres, rng.Split(math.MaxUint32))
		if err != nil {
			return nil, 0, 0, fmt.Errorf("core: probing rest group: %w", err)
		}
		g.SoloSpeedup = baseMean / mean
		groups = append(groups, g)
	}
	if len(groups) == 0 {
		return nil, 0, 0, fmt.Errorf("core: workload %s produced no allocation groups", t.name)
	}
	return groups, filtered, totalSites, nil
}
