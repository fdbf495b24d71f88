package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"time"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/trace"
)

// Shared machinery of the two campaign workloads, whose operation is
// one whole campaign followed by one-cell warm queries over its tree.

const (
	// opTimeout fails an operation that hangs instead of the run: a
	// healthy one takes well under a second.
	opTimeout = 30 * time.Second
	// minOps gives campaign_ms_p90 ten samples beyond it.
	minOps = 100
	// minWarm gives warm_ms_p95 ten samples beyond it. The warm tail
	// is reported at p95, not p99: in serve-mix, p99 falls on the knee
	// between warm requests served alone and those that share the CPUs
	// with the other client's miss (p98 0.21 ms, p99.5 0.6 ms on a 2-vCPU
	// VM) and moved by up to 40% between runs.
	minWarm = 200
	// phaseLimit bounds the measured phase at this many times --seconds
	// of wall time, so a program that fails or stalls every operation
	// still ends its run and reports what it measured. A healthy run
	// reaches its sample minimums long before.
	phaseLimit = 4
)

// opStats accumulates the measured operations of a run.
type opStats struct {
	start   time.Time       // start of the measured phase
	opDur   []time.Duration // whole campaigns
	warmDur []time.Duration // one-cell warm queries
	busy    time.Duration   // their sum: the time spent in measured calls
	cells   int             // cells delivered by successful campaigns
	// Traced runs alternate: even operations untraced, odd traced.
	plainDur, tracedDur []time.Duration
	// Work counts of the traced operations, summed.
	counts map[string]float64
	traced int
}

func newOpStats() *opStats {
	return &opStats{start: time.Now(), counts: make(map[string]float64)}
}

// more reports whether the measured phase needs another operation:
// until --seconds of measured calls and the sample minimums are both
// reached, or the phase has run phaseLimit times --seconds.
func (s *opStats) more(rc *runCfg) bool {
	if time.Since(s.start) >= phaseLimit*rc.seconds {
		return false
	}
	if s.busy < rc.seconds {
		return true
	}
	return !rc.traced && (len(s.opDur) < minOps || len(s.warmDur) < minWarm)
}

// tracerFor returns the tracer operation i records into, or nil.
func tracerFor(rc *runCfg, t *tracer, i int) *tracer {
	if rc.traced && i%2 == 1 {
		return t
	}
	return nil
}

// addOp records one campaign's wall time.
func (s *opStats) addOp(rc *runCfg, i int, d time.Duration) {
	s.opDur = append(s.opDur, d)
	s.busy += d
	if !rc.traced {
		return
	}
	if i%2 == 1 {
		s.tracedDur = append(s.tracedDur, d)
	} else {
		s.plainDur = append(s.plainDur, d)
	}
}

// addCounts folds one traced campaign's work accounting.
func (s *opStats) addCounts(r *campaign.Result) {
	s.traced++
	s.counts["campaign.kernels"] += float64(r.Executions)
	s.counts["campaign.derived"] += float64(r.Derived)
	s.counts["campaign.cache_hits"] += float64(r.CacheHits)
	s.counts["campaign.analysis_hits"] += float64(r.AnalysisHits)
	s.counts["campaign.coalesced"] += float64(r.Coalesced)
}

func mean(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds))
}

// report fills the end-to-end metrics, or in a traced run the
// campaign counters.
func (s *opStats) report(rc *runCfg, out *outcome) {
	if rc.traced {
		for k, v := range s.counts {
			out.values[k] = v / float64(max(s.traced, 1))
		}
		opOverhead(rc, s.plainDur, s.tracedDur)
		return
	}
	var opBusy time.Duration
	opMs := make([]float64, len(s.opDur))
	for i, d := range s.opDur {
		opBusy += d
		opMs[i] = ms(d)
	}
	warmMs := make([]float64, len(s.warmDur))
	for i, d := range s.warmDur {
		warmMs[i] = ms(d)
	}
	out.values["cells_per_s"] = rate(s.cells, opBusy)
	out.values["req_per_s"] = rate(len(s.opDur)+len(s.warmDur), s.busy)
	for _, p := range []struct {
		name string
		xs   []float64
		pct  float64
	}{
		{"campaign_ms_p50", opMs, 50}, {"campaign_ms_p90", opMs, 90},
		{"warm_ms_p50", warmMs, 50}, {"warm_ms_p95", warmMs, 95},
	} {
		out.values[p.name] = reportedPercentile(rc, p.name, p.xs, p.pct)
	}
}

// opOverhead records in the info line how much longer the traced
// operations took than the untraced ones. They differ only by their few
// op-level spans; trace.overhead_frac, from the layer walk, covers the
// per-call spans the per-layer metrics come from.
func opOverhead(rc *runCfg, plain, traced []time.Duration) {
	if len(plain) > 0 && len(traced) > 0 {
		rc.info["op_trace_overhead_frac"] = mean(traced)/mean(plain) - 1
	}
}

// reportedPercentile is percentile p of xs. A run cut by phaseLimit may
// hold fewer samples than the percentile needs; it then reports the
// nearest rank anyway, or 0 with no samples at all, and names the
// metric in the info line, so a failing or stalled program still
// yields a result line.
func reportedPercentile(rc *runCfg, name string, xs []float64, p float64) float64 {
	v, err := percentile(xs, p)
	if err == nil {
		return v
	}
	short, _ := rc.info["short_samples"].([]string)
	rc.info["short_samples"] = append(short, name)
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

// warmQueries asks for each cell again as a one-cell campaign on a
// fresh engine over the operation's cache tree — the read-back a study
// makes of its results. Every cell must come from the analysis cache.
// It returns the cells' digests in order.
func warmQueries(ctx context.Context, s *opStats, snaps *trace.SnapshotCache, ans *core.AnalysisCache, cells []cellRef) ([]digest, error) {
	out := make([]digest, len(cells))
	for i, c := range cells {
		eng := &campaign.Engine{Cache: snaps, Analyses: ans}
		start := time.Now()
		res, err := eng.RunContext(ctx, c.matrix())
		d := time.Since(start)
		s.warmDur = append(s.warmDur, d)
		s.busy += d
		if err != nil {
			return nil, err
		}
		if !res.Cells[0].AnalysisFromCache {
			return nil, fmt.Errorf("warm query %s was not served from the analysis cache", c)
		}
		ds, err := resultDigests(res)
		if err != nil {
			return nil, err
		}
		out[i] = ds[0]
	}
	return out, nil
}

// publishStats sums the successful publishes and publish retries of
// both cache rungs.
func publishStats(snaps *trace.SnapshotCache, ans *core.AnalysisCache) (publishes, retries float64) {
	publishes = float64(snaps.Stats().Stores + ans.Stats().Stores)
	retries = float64(snaps.Publisher().Stats().Retries + ans.Publisher().Stats().Retries)
	return publishes, retries
}

// tally records the outputs of a run's successful operations for the
// oracle that follows the measured phase. Operations whose outputs
// should be equal share a group; within one, operations with the same
// digests share one entry. The record therefore stays the same size
// however many operations a run makes, and heap_mb measures the
// program rather than it.
type tally map[tallyKey]*tallyEntry

type tallyKey struct {
	group int
	sum   digest // of the operation's digests, in order
}

type tallyEntry struct {
	ds    []digest
	first int // the first operation that produced ds
	n     int // how many did
}

func (t tally) add(group, op int, ds []digest) {
	h := sha256.New()
	for _, d := range ds {
		h.Write(d[:])
	}
	k := tallyKey{group: group}
	h.Sum(k.sum[:0])
	if e := t[k]; e != nil {
		e.n++
		return
	}
	t[k] = &tallyEntry{ds: ds, first: op, n: 1}
}

// check compares every entry with the digests want returns for its
// first operation, reports each that differs, and returns how many
// operations differ.
func (t tally) check(workload string, want func(op int) []digest) int {
	entries := make([]*tallyEntry, 0, len(t))
	for _, e := range t {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].first < entries[j].first })
	failed := 0
	for _, e := range entries {
		if n := mismatches(e.ds, want(e.first)); n > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d and %d more like it: %d cells differ from the oracle\n", workload, e.first, e.n-1, n)
			failed += e.n
		}
	}
	return failed
}

// heldMB is the size of the run's latency records, which live in the
// same heap as the program's data and are left out of heap_mb.
func (s *opStats) heldMB() float64 {
	return float64(8*(cap(s.opDur)+cap(s.warmDur)+cap(s.plainDur)+cap(s.tracedDur))) / (1 << 20)
}

// mismatches counts the positions where got differs from want.
func mismatches(got, want []digest) int {
	if len(got) != len(want) {
		return max(len(got), len(want))
	}
	n := 0
	for i := range got {
		if got[i] != want[i] {
			n++
		}
	}
	return n
}
