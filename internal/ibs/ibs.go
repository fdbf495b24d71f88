// Package ibs models the instruction-based sampling half of the paper's
// measurement stack (AMD IBS / Intel PEBS read through Linux perf): it
// draws address samples from a workload's phase trace, resolves each
// sampled address to the live allocation containing it through the shim
// registry — exactly how the real tool correlates IBS linear addresses
// with intercepted allocation ranges — and aggregates per-allocation
// access densities and latency statistics.
//
// The "Access Samples" fraction plotted as blue crosses in Fig. 7a is
// Report.Density over a set of allocations.
//
// Two sampling paths produce a Report:
//
//   - Sample is the batched engine: every quantity of the report is a
//     deterministic function of per-(stream, pool) sample counts, so the
//     engine derives each stream's sample count n in closed form,
//     resolves the whole stream with one liveness check (addresses are
//     drawn uniformly inside one allocation, so they land in it iff it
//     is live), counts reads directly from n and the stream kind, and
//     attributes pools with a multinomial draw — NumPools−1 binomial
//     draws instead of n roulette spins. The whole pass is
//     O(phases × streams × pools), independent of the sample budget.
//   - SampleReference is the bit-level oracle for the original RNG
//     discipline: one RNG draw, address resolve and pool roulette per
//     sample, up to MaxSamples iterations per run.
//
// Both paths agree exactly on Total, Unmapped, Period, per-allocation
// Samples, Density and ReadFrac (all deterministic in the trace), and
// within CLT tolerance on AvgLatency (the only statistic the pool
// roulette actually randomises); the root-level sampling equivalence
// test enforces this for every registered workload.
package ibs

import (
	"fmt"
	"math"
	"sort"
	"unsafe"

	"hmpt/internal/memsim"
	"hmpt/internal/shim"
	"hmpt/internal/trace"
	"hmpt/internal/units"
	"hmpt/internal/xrand"
)

// SamplerVersion identifies the sampling discipline of the batched
// engine (bucket math, multinomial pool attribution, RNG consumption
// order). It participates in snapshot keys so that embedded sample
// counts captured under an older discipline are never replayed into a
// newer engine. Bump it whenever Sample's math or RNG usage changes.
const SamplerVersion = 2

// Default sampler controls: the paper driver's ~64 Ki-line period and
// 200k-sample perf buffer budget. core.Options normalises unset sampler
// controls to these values so snapshot keys are canonical.
const (
	DefaultPeriod     int64 = 1 << 16
	DefaultMaxSamples       = 200_000
)

// Sample is one sampled memory access.
type Sample struct {
	Addr    uint64
	Alloc   shim.AllocID // 0 when the address resolved to no live allocation
	Latency units.Duration
	Pool    string
	Phase   string
	Kind    trace.Kind
}

// AllocStats aggregates the samples attributed to one allocation.
type AllocStats struct {
	Samples    int
	Density    float64 // fraction of all samples
	AvgLatency units.Duration
	ReadFrac   float64 // fraction of the allocation's samples that were reads
}

// Report is the outcome of sampling one run.
type Report struct {
	Total    int
	Period   int64 // cache lines per sample actually used
	ByAlloc  map[shim.AllocID]*AllocStats
	Unmapped int // samples not resolving to a live allocation
}

// mapSlotBytes estimates one ByAlloc map entry's share of the map: its
// key, its value pointer and the buckets' slack at their usual load.
const mapSlotBytes = 24

// HeapBytes estimates the heap the report holds — one AllocStats and
// one map entry per sampled allocation — for stores that charge what
// they retain.
func (r *Report) HeapBytes() int64 {
	return int64(unsafe.Sizeof(*r)) + int64(len(r.ByAlloc))*(int64(unsafe.Sizeof(AllocStats{}))+mapSlotBytes)
}

// Density returns the combined sample density of the given allocations.
func (r *Report) Density(ids ...shim.AllocID) float64 {
	var d float64
	for _, id := range ids {
		if st, ok := r.ByAlloc[id]; ok {
			d += st.Density
		}
	}
	return d
}

// Ranked returns allocation IDs sorted by decreasing density (ties broken
// by ID for determinism).
func (r *Report) Ranked() []shim.AllocID {
	ids := make([]shim.AllocID, 0, len(r.ByAlloc))
	for id := range r.ByAlloc {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := r.ByAlloc[ids[i]].Density, r.ByAlloc[ids[j]].Density
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// Sampler draws address samples from phase traces.
type Sampler struct {
	// Period is the nominal sampling period in cache lines per sample.
	// It is raised automatically if a trace would otherwise produce more
	// than MaxSamples.
	Period int64
	// MaxSamples bounds the per-run sample count (perf buffer budget).
	MaxSamples int
}

// NewSampler returns a sampler with the defaults used by the paper's
// driver script: a period around 64 Ki lines and a 200k-sample budget.
func NewSampler() *Sampler {
	return &Sampler{Period: DefaultPeriod, MaxSamples: DefaultMaxSamples}
}

// effectivePeriod returns the period actually used for tr: the nominal
// period, raised so the trace stays within the sample budget.
func (s *Sampler) effectivePeriod(tr *trace.Trace) int64 {
	period := s.Period
	if period <= 0 {
		period = DefaultPeriod
	}
	totalLines := tr.TotalBytes().Lines()
	if s.MaxSamples > 0 && totalLines/period > int64(s.MaxSamples) {
		period = totalLines/int64(s.MaxSamples) + 1
	}
	return period
}

// forEachStream walks the trace in phase/stream order invoking fn for
// every stream that draws at least one sample, with the stream's
// allocation and its sample count n. The fractional-sample carry is
// threaded across streams exactly as the per-sample reference loop
// does, so every pass — counting, batched sampling, reference sampling,
// count replay — derives the identical n sequence and therefore the
// identical Total.
func forEachStream(tr *trace.Trace, al *shim.Allocator, period int64, fn func(st *trace.Stream, a *shim.Allocation, n int)) {
	var carry float64 // fractional samples carried across streams
	for pi := range tr.Phases {
		ph := &tr.Phases[pi]
		times := float64(ph.Times())
		for si := range ph.Streams {
			st := &ph.Streams[si]
			a := al.Lookup(st.Alloc)
			if a == nil {
				continue
			}
			lines := float64(st.Bytes.Lines()) * times
			if st.Kind == trace.Update {
				lines *= 2
			}
			want := lines/float64(period) + carry
			n := int(want)
			carry = want - float64(n)
			if n == 0 {
				continue
			}
			if a.SimSize <= 0 {
				// Zero-extent allocation: no addresses to draw from. The
				// reference loop drops these samples after consuming the
				// carry; mirror that exactly.
				continue
			}
			fn(st, a, n)
		}
	}
}

// readsFor returns how many of a stream's n samples the reference loop
// counts as reads: all of them for Read streams, the even sample
// indices (⌈n/2⌉) for Update streams, none for Write streams.
func readsFor(k trace.Kind, n int) int {
	switch k {
	case trace.Read:
		return n
	case trace.Update:
		return (n + 1) / 2
	default:
		return 0
	}
}

// poolLatency returns the average access latency in seconds a sample of
// st served by pool pid observes — the same per-(stream, pool) profile
// the reference loop precomputes per stream.
func poolLatency(m *memsim.Machine, pid memsim.PoolID, st *trace.Stream) float64 {
	prof := memsim.AccessProfile{AvgLatency: m.P.Pools[pid].Latency}
	if st.Pattern == trace.Random || st.Pattern == trace.Chase {
		prof = m.P.AccessProfileFor(pid, st.WorkingSet)
	}
	return prof.AvgLatency.Seconds()
}

// Sample draws samples for the trace as placed by pl on machine m using
// the batched engine: O(phases × streams × pools) work regardless of
// the sample budget, no allocations in the per-stream loop (provided pl
// implements memsim.SplitterInto or memsim.PoolAssigner), and a report
// that agrees with SampleReference exactly on every count-derived
// statistic and within CLT tolerance on AvgLatency. The result is
// deterministic for a fixed rng seed.
func (s *Sampler) Sample(tr *trace.Trace, al *shim.Allocator, m *memsim.Machine, pl memsim.Placement, rng *xrand.Rand) (*Report, error) {
	if tr == nil || al == nil || m == nil || pl == nil || rng == nil {
		return nil, fmt.Errorf("ibs: nil argument")
	}
	period := s.effectivePeriod(tr)
	rep := &Report{Period: period, ByAlloc: make(map[shim.AllocID]*AllocStats)}
	byAlloc := make([]sampleAgg, maxAllocID(al)+1)

	if pa, ok := pl.(memsim.PoolAssigner); ok {
		// Whole-pool placements (the all-DDR reference run, every tuning
		// configuration) need no draws at all: every sample of a stream
		// observes the same pool latency.
		rep.Total, rep.Unmapped = accumulate(tr, al, period, byAlloc, wholePoolLatency(m, pa))
		finishReport(rep, byAlloc)
		return rep, nil
	}

	splitBuf := make([]float64, pl.NumPools())
	poolBuf := make([]int, pl.NumPools())
	latSec := make([]float64, len(m.P.Pools))
	sp, _ := pl.(memsim.SplitterInto)
	rep.Total, rep.Unmapped = accumulate(tr, al, period, byAlloc, func(st *trace.Stream, n int, g *sampleAgg) {
		split := splitBuf
		if sp != nil {
			sp.SplitInto(st.Alloc, splitBuf)
		} else {
			split = pl.Split(st.Alloc)
		}
		for pid := range latSec {
			latSec[pid] = poolLatency(m, memsim.PoolID(pid), st)
		}
		multinomial(rng, n, split, poolBuf)
		for pid, k := range poolBuf {
			if k != 0 {
				g.latSum += float64(k) * latSec[pid]
			}
		}
	})
	finishReport(rep, byAlloc)
	return rep, nil
}

// accumulate tallies every sampled stream into byAlloc and returns the
// total and unmapped sample counts. tally, when non-nil, runs for each
// live stream after the count tally to attribute latency (whole-pool
// term or multinomial draw); the machine-free count pass passes nil.
// Every sampling pass — counting, the engine's two placement paths, and
// count replay — runs on this one body, which is what keeps their
// tallies, and therefore the snapshot-validation equalities, in
// lock-step by construction.
func accumulate(tr *trace.Trace, al *shim.Allocator, period int64, byAlloc []sampleAgg,
	tally func(st *trace.Stream, n int, g *sampleAgg)) (total, unmapped int) {

	forEachStream(tr, al, period, func(st *trace.Stream, a *shim.Allocation, n int) {
		total += n
		if !a.Live() {
			// The whole stream draws inside this one dead allocation's
			// range; the shim's bump allocator never reuses it, so no
			// sample can resolve to a live allocation.
			unmapped += n
			return
		}
		g := &byAlloc[a.ID]
		g.n += n
		g.reads += readsFor(st.Kind, n)
		if tally != nil {
			tally(st, n, g)
		}
	})
	return total, unmapped
}

// wholePoolLatency returns the latency tally of a whole-pool placement:
// every sample of a stream observes its one pool's latency.
func wholePoolLatency(m *memsim.Machine, pa memsim.PoolAssigner) func(st *trace.Stream, n int, g *sampleAgg) {
	return func(st *trace.Stream, n int, g *sampleAgg) {
		g.latSum += float64(n) * poolLatency(m, pa.PoolOf(st.Alloc), st)
	}
}

// Counts runs the platform-independent half of the batched engine: the
// deterministic per-allocation sample and read counts, with no machine,
// placement or RNG involved. This is what core.Capture embeds in a
// snapshot — everything else in a Report is either derived from these
// counts or recomputed against the replaying machine.
func (s *Sampler) Counts(tr *trace.Trace, al *shim.Allocator) (*trace.SampleCounts, error) {
	if tr == nil || al == nil {
		return nil, fmt.Errorf("ibs: nil argument")
	}
	period := s.effectivePeriod(tr)
	byAlloc := make([]sampleAgg, maxAllocID(al)+1)
	c := &trace.SampleCounts{SamplerVersion: SamplerVersion, Period: period}
	total, unmapped := accumulate(tr, al, period, byAlloc, nil)
	c.Total, c.Unmapped = int64(total), int64(unmapped)
	for id := range byAlloc {
		if byAlloc[id].n == 0 {
			continue
		}
		c.ByAlloc = append(c.ByAlloc, trace.SampleAllocCount{
			ID: shim.AllocID(id), Samples: int64(byAlloc[id].n), Reads: int64(byAlloc[id].reads),
		})
	}
	return c, nil
}

// CountTable is the validated, platform-independent half of a count
// replay: the per-allocation sample and read counts of one (counts,
// trace, registry) triple, checked against the embedded counts once.
// Report derives the platform-dependent half — latencies — from it for
// any machine, without re-validating; one table serves every platform
// of a capture.
type CountTable struct {
	counts   *trace.SampleCounts
	tr       *trace.Trace
	al       *shim.Allocator
	byAlloc  []sampleAgg // n and reads filled; latSum unused (zero)
	total    int
	unmapped int
}

// ValidateCounts runs the platform-independent half of a count replay:
// one machine-free accumulate walk deriving the per-allocation counts
// from the trace, validated against the embedded counts. Counts that
// disagree with the trace (a stale or foreign embedding) are rejected
// rather than silently producing a divergent report.
func ValidateCounts(c *trace.SampleCounts, tr *trace.Trace, al *shim.Allocator) (*CountTable, error) {
	if c == nil || tr == nil || al == nil {
		return nil, fmt.Errorf("ibs: nil argument")
	}
	if c.SamplerVersion != SamplerVersion {
		return nil, fmt.Errorf("ibs: sample counts from sampler version %d, this build replays %d", c.SamplerVersion, SamplerVersion)
	}
	if c.Period <= 0 {
		return nil, fmt.Errorf("ibs: sample counts carry period %d", c.Period)
	}
	t := &CountTable{counts: c, tr: tr, al: al, byAlloc: make([]sampleAgg, maxAllocID(al)+1)}
	t.total, t.unmapped = accumulate(tr, al, c.Period, t.byAlloc, nil)
	if int64(t.total) != c.Total || int64(t.unmapped) != c.Unmapped {
		return nil, fmt.Errorf("ibs: sample counts record %d total / %d unmapped, trace yields %d / %d (stale embedding)",
			c.Total, c.Unmapped, t.total, t.unmapped)
	}
	for _, e := range c.ByAlloc {
		if int(e.ID) >= len(t.byAlloc) || int64(t.byAlloc[e.ID].n) != e.Samples || int64(t.byAlloc[e.ID].reads) != e.Reads {
			return nil, fmt.Errorf("ibs: sample counts for allocation %d disagree with the trace (stale embedding)", e.ID)
		}
	}
	return t, nil
}

// HeapBytes estimates the heap the table holds beyond the trace,
// registry and counts it references: its per-allocation accumulator.
func (t *CountTable) HeapBytes() int64 {
	return int64(unsafe.Sizeof(*t)) + int64(unsafe.Sizeof(sampleAgg{}))*int64(cap(t.byAlloc))
}

// Report derives the full report of the validated table against one
// machine and placement — the platform-dependent half of a count replay:
// a latency-only walk over the trace, with the counts taken from the
// table. The placement must assign each allocation wholly to one pool
// (memsim.PoolAssigner — the all-DDR reference placement the pipeline
// samples under), which makes the reconstruction deterministic, free of
// RNG, and bitwise equal to the engine's output: the latency additions
// run in the same stream order on the same values as the fused
// engine walk.
func (t *CountTable) Report(m *memsim.Machine, pl memsim.Placement) (*Report, error) {
	if m == nil || pl == nil {
		return nil, fmt.Errorf("ibs: nil argument")
	}
	pa, ok := pl.(memsim.PoolAssigner)
	if !ok {
		return nil, fmt.Errorf("ibs: count replay requires a whole-pool placement (memsim.PoolAssigner)")
	}
	rep := &Report{Period: t.counts.Period, ByAlloc: make(map[shim.AllocID]*AllocStats)}
	rep.Total, rep.Unmapped = t.total, t.unmapped
	byAlloc := make([]sampleAgg, len(t.byAlloc))
	copy(byAlloc, t.byAlloc)
	tally := wholePoolLatency(m, pa)
	forEachStream(t.tr, t.al, t.counts.Period, func(st *trace.Stream, a *shim.Allocation, n int) {
		if !a.Live() {
			return
		}
		tally(st, n, &byAlloc[a.ID])
	})
	finishReport(rep, byAlloc)
	return rep, nil
}

// sampleAgg is the dense per-allocation accumulator shared by the
// batched engine, the reference loop and count replay.
type sampleAgg struct {
	n      int
	reads  int
	latSum float64
}

// finishReport folds the dense accumulator into the report's ByAlloc
// map, deriving densities and averages.
func finishReport(rep *Report, byAlloc []sampleAgg) {
	for id := range byAlloc {
		g := &byAlloc[id]
		if g.n == 0 {
			continue
		}
		st := &AllocStats{Samples: g.n}
		if rep.Total > 0 {
			st.Density = float64(g.n) / float64(rep.Total)
		}
		st.AvgLatency = units.Duration(g.latSum / float64(g.n))
		st.ReadFrac = float64(g.reads) / float64(g.n)
		rep.ByAlloc[shim.AllocID(id)] = st
	}
}

// maxAllocID returns the highest allocation ID the allocator has issued.
func maxAllocID(al *shim.Allocator) shim.AllocID {
	var maxID shim.AllocID
	for _, a := range al.All() {
		if a.ID > maxID {
			maxID = a.ID
		}
	}
	return maxID
}

// SampleReference draws samples with the original per-sample loop: one
// RNG draw, binary-search address resolve and pool roulette per sample,
// up to MaxSamples iterations. It is retained as the bit-level oracle
// for the old RNG discipline that the batched engine is equivalence-
// tested against; new callers should use Sample.
func (s *Sampler) SampleReference(tr *trace.Trace, al *shim.Allocator, m *memsim.Machine, pl memsim.Placement, rng *xrand.Rand) (*Report, error) {
	if tr == nil || al == nil || m == nil || pl == nil || rng == nil {
		return nil, fmt.Errorf("ibs: nil argument")
	}
	period := s.effectivePeriod(tr)

	rep := &Report{Period: period, ByAlloc: make(map[shim.AllocID]*AllocStats)}
	res := newResolver(al)
	// Dense per-allocation aggregation, indexed by AllocID: the sample
	// loop runs up to MaxSamples times and must not hash per sample.
	byAlloc := make([]sampleAgg, res.maxID+1)
	splitBuf := make([]float64, pl.NumPools())
	latSec := make([]float64, len(m.P.Pools))

	var carry float64 // fractional samples carried across streams
	for pi := range tr.Phases {
		ph := &tr.Phases[pi]
		times := float64(ph.Times())
		for si := range ph.Streams {
			st := &ph.Streams[si]
			a := al.Lookup(st.Alloc)
			if a == nil {
				continue
			}
			lines := float64(st.Bytes.Lines()) * times
			if st.Kind == trace.Update {
				lines *= 2
			}
			want := lines/float64(period) + carry
			n := int(want)
			carry = want - float64(n)
			if n == 0 {
				continue
			}
			split := splitBuf
			if sp, ok := pl.(memsim.SplitterInto); ok {
				sp.SplitInto(st.Alloc, splitBuf)
			} else {
				split = pl.Split(st.Alloc)
			}
			span := uint64(st.WorkingSet)
			if span == 0 || span > uint64(a.SimSize) {
				span = uint64(a.SimSize)
			}
			if span == 0 {
				continue
			}
			// The pool-latency profile depends only on the stream and the
			// sampled pool, not on the sampled address: precompute the
			// per-pool latencies once per stream.
			for pid := range m.P.Pools {
				latSec[pid] = poolLatency(m, memsim.PoolID(pid), st)
			}
			countReads := st.Kind == trace.Read
			for k := 0; k < n; k++ {
				addr := a.Addr + rng.Uint64()%span
				id := res.resolve(addr)
				if id == 0 {
					rep.Unmapped++
					rep.Total++
					continue
				}
				pid := choosePool(split, rng)
				g := &byAlloc[id]
				g.n++
				g.latSum += latSec[pid]
				if countReads || (st.Kind == trace.Update && k%2 == 0) {
					g.reads++
				}
				rep.Total++
			}
		}
	}
	finishReport(rep, byAlloc)
	return rep, nil
}

// resolver is a snapshot of the live allocations for address-to-
// allocation attribution: the shim's bump allocator hands out disjoint,
// monotonically increasing ranges, so a binary search over the sorted
// live ranges returns exactly the allocation Allocator.Resolve's linear
// scan would, without taking the allocator lock per sample.
type resolver struct {
	addrs []uint64 // sorted range starts
	ends  []uint64
	ids   []shim.AllocID
	maxID shim.AllocID
}

func newResolver(al *shim.Allocator) *resolver {
	r := &resolver{}
	for _, a := range al.All() {
		if a.ID > r.maxID {
			r.maxID = a.ID
		}
		if !a.Live() {
			continue
		}
		r.addrs = append(r.addrs, a.Addr)
		r.ends = append(r.ends, a.End())
		r.ids = append(r.ids, a.ID)
	}
	return r
}

// resolve returns the live allocation containing addr, or 0.
func (r *resolver) resolve(addr uint64) shim.AllocID {
	lo, hi := 0, len(r.addrs)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.addrs[mid] <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is one past the last range starting at or below addr.
	if lo == 0 || addr >= r.ends[lo-1] {
		return 0
	}
	return r.ids[lo-1]
}

// choosePool picks a pool index according to the placement split. The
// draw is normalised by the split's sum, so fraction vectors summing to
// slightly less than 1 (float accumulation across pools) distribute the
// tail proportionally instead of silently funnelling it into the last
// pool. Degenerate splits are pinned by tests: a single-pool split
// always returns that pool, and an all-zero split falls back to the
// last pool (the "unknown allocation" escape hatch).
func choosePool(split []float64, rng *xrand.Rand) memsim.PoolID {
	var sum float64
	for _, f := range split {
		if f > 0 {
			sum += f
		}
	}
	u := rng.Float64()
	if sum > 0 {
		u *= sum // exact no-op for the common sum == 1 case
	}
	acc := 0.0
	for i, f := range split {
		if f <= 0 {
			continue
		}
		acc += f
		if u < acc {
			return memsim.PoolID(i)
		}
	}
	return memsim.PoolID(len(split) - 1)
}

// multinomial draws the per-pool counts of n samples distributed over
// the (possibly under-normalised) weight vector split, writing them
// into out. It consumes at most len(split)−1 binomial draws — the
// marginal of a multinomial is binomial, and each subsequent pool is
// binomial in the remaining trials with its weight renormalised against
// the remaining mass. Weights are normalised by their sum, matching
// choosePool; an all-zero split degenerates to the last pool.
func multinomial(rng *xrand.Rand, n int, split []float64, out []int) {
	for i := range out {
		out[i] = 0
	}
	if n <= 0 || len(out) == 0 {
		return
	}
	last := -1
	rem := 0.0
	for i, f := range split {
		if f > 0 {
			last = i
			rem += f
		}
	}
	if last < 0 {
		out[len(out)-1] = n
		return
	}
	left := n
	for i := 0; i < last && left > 0; i++ {
		f := split[i]
		if f <= 0 {
			continue
		}
		k := left
		if p := f / rem; p < 1 {
			k = binomial(rng, left, p)
		}
		out[i] = k
		left -= k
		rem -= f
	}
	out[last] += left
}

// binomial draws k ~ Binomial(n, p) deterministically from rng. Small
// means invert the CDF exactly (expected O(np) work); large means use
// the normal approximation with continuity correction — one draw, and
// indistinguishable at the sampler's aggregation level, whose contract
// on latency statistics is CLT tolerance, not bit equality.
func binomial(rng *xrand.Rand, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		// Invert the rarer tail so the exact path's work stays bounded.
		return n - binomial(rng, n, 1-p)
	}
	mean := float64(n) * p
	if mean <= 32 {
		u := rng.Float64()
		q := 1 - p
		pdf := math.Pow(q, float64(n))
		cdf := pdf
		ratio := p / q
		k := 0
		for u > cdf && k < n {
			k++
			pdf *= float64(n-k+1) / float64(k) * ratio
			cdf += pdf
		}
		return k
	}
	k := int(math.Round(mean + math.Sqrt(mean*(1-p))*rng.NormFloat64()))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}
