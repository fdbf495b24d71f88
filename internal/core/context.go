package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"hmpt/internal/ibs"
	"hmpt/internal/memsim"
	"hmpt/internal/shim"
	"hmpt/internal/trace"
	"hmpt/internal/wire"
)

// ReplayContext is the shared, immutable replay environment of one
// captured reference run: the decoded snapshot, the restored shim
// allocation registry, one private copy of the phase trace, and memos
// of the derived artefacts every analysis of the capture re-derives —
// the sampling report reconstructed per platform and the compiled
// SweepEvaluator per (platform, threads, partition).
//
// A context is built once per capture (NewContext) and reused read-only
// by every analysis replaying it (NewContextReplay): campaign cells
// sharing a capture stop re-decoding the snapshot, re-restoring the
// registry, re-reconstructing the report and re-compiling evaluators
// per cell. Memoised evaluators are handed out as clones — the same
// contract the parallel sweep fan-out already relies on — so shared
// compiled tables never carry cross-cell mutable state, and a
// context-shared analysis is byte-identical to a per-replay one.
//
// A ReplayContext is safe for concurrent use. Callers must treat the
// snapshot, registry and trace it exposes as read-only.
type ReplayContext struct {
	snap *trace.Snapshot
	al   *shim.Allocator
	tr   *trace.Trace

	sitesOnce sync.Once
	sites     []shim.SiteGroup

	countsOnce sync.Once
	counts     *ibs.CountTable // validated once, shared by every platform
	countsErr  error

	mu      sync.Mutex
	reports map[string]*ibs.Report             // platform fingerprint -> shared report
	evals   map[evalKey]*memsim.SweepEvaluator // pristine compiled evaluators

	// memoBytes is the estimated heap of the count table, reports and
	// evaluators memoised so far (MemoBytes).
	memoBytes atomic.Int64
}

// evalKey identifies one compiled evaluator: the platform's content
// fingerprint, the default thread count, the default pool, and a hash
// of the group partition.
type evalKey struct {
	platform string
	threads  int
	defPool  memsim.PoolID
	sets     uint64
}

// NewContext builds the shared replay environment of a snapshot:
// restores the allocation registry and deep-copies the trace once, so
// every subsequent replay of the capture shares both.
func NewContext(snap *trace.Snapshot) (*ReplayContext, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	al, err := shim.Restore(snap.Registry)
	if err != nil {
		return nil, fmt.Errorf("core: restoring %q registry: %w", snap.Meta.Workload, err)
	}
	return &ReplayContext{
		snap:    snap,
		al:      al,
		tr:      copyTrace(snap.Trace),
		reports: make(map[string]*ibs.Report),
		evals:   make(map[evalKey]*memsim.SweepEvaluator),
	}, nil
}

// Snapshot returns the capture the context replays (read-only).
func (c *ReplayContext) Snapshot() *trace.Snapshot { return c.snap }

// Workload returns the captured workload's name.
func (c *ReplayContext) Workload() string { return c.snap.Meta.Workload }

// Sites returns the capture's allocation site groups in first-appearance
// order — the input AnalysisKeyFor needs to fingerprint a GroupBy
// policy's effect on this capture. The restored registry never changes,
// so the groups are built on first use and every later call returns the
// same slice, which callers must treat as read-only.
func (c *ReplayContext) Sites() []shim.SiteGroup {
	c.sitesOnce.Do(func() { c.sites = c.al.Sites() })
	return c.sites
}

// MemoBytes estimates the heap the context's memos hold: the validated
// count table, each platform's sampling report and each compiled sweep
// evaluator. It starts at zero and grows as analyses replay the capture
// on new platforms or partitions, so a store that charges a context by
// its size re-reads it after each analysis (the campaign engine's
// bounded flight group does).
func (c *ReplayContext) MemoBytes() int64 { return c.memoBytes.Load() }

// countTable returns the capture's validated count table — the
// platform-independent half of report reconstruction — building it on
// first use and sharing it across every platform of the capture. The
// walk runs once per context and is counted on the ledger of the
// caller that ran it, so a context runs one CountWalk no matter how
// many platforms replay it (pinned by the context tests).
func (c *ReplayContext) countTable(ctx context.Context) (*ibs.CountTable, error) {
	c.countsOnce.Do(func() {
		LedgerFrom(ctx).Add(CountWalk)
		c.counts, c.countsErr = ibs.ValidateCounts(c.snap.Samples, c.tr, c.al)
		if c.countsErr == nil {
			c.memoBytes.Add(c.counts.HeapBytes())
		}
	})
	return c.counts, c.countsErr
}

// report returns the sampling report of the capture's embedded counts
// reconstructed against the machine, memoised per platform fingerprint
// (fp, computed once per analysis by the caller): the reconstruction is
// a pure function of (counts, trace, registry, platform), so every cell
// of one platform shares one report — and all platforms share the one
// validated count table, re-deriving only the latency half.
func (c *ReplayContext) report(ctx context.Context, fp string, m *memsim.Machine, allDDR memsim.Placement) (*ibs.Report, error) {
	c.mu.Lock()
	r, ok := c.reports[fp]
	c.mu.Unlock()
	if ok {
		return r, nil
	}
	table, err := c.countTable(ctx)
	if err != nil {
		return nil, err
	}
	// Reconstruct outside the lock so independent platforms derive in
	// parallel; concurrent losers for one key discard their (identical)
	// result in favour of the first published one.
	r, err = table.Report(m, allDDR)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if prev, ok := c.reports[fp]; ok {
		r = prev
	} else {
		c.reports[fp] = r
		c.memoBytes.Add(r.HeapBytes())
	}
	c.mu.Unlock()
	return r, nil
}

// evaluator returns a private clone of the compiled sweep evaluator for
// the partition, compiling it on first use per (platform, threads,
// partition). fp is the machine's platform fingerprint, computed once
// per analysis by the caller. Compilation is deterministic in those
// inputs, so the clone is bit-identical to a fresh CompileSweep of the
// same arguments.
func (c *ReplayContext) evaluator(fp string, m *memsim.Machine, threads int, sets [][]shim.AllocID, defPool memsim.PoolID) (*memsim.SweepEvaluator, error) {
	key := evalKey{platform: fp, threads: threads, defPool: defPool, sets: hashSets(sets)}
	c.mu.Lock()
	ev, ok := c.evals[key]
	c.mu.Unlock()
	if ok {
		return ev.Clone(), nil
	}
	// Compile outside the lock so independent (platform, threads,
	// partition) keys compile in parallel; concurrent losers for one
	// key discard their (bit-identical) compilation in favour of the
	// first published one.
	ev, err := m.CompileSweep(c.tr, threads, sets, defPool)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if prev, ok := c.evals[key]; ok {
		ev = prev
	} else {
		c.evals[key] = ev
		c.memoBytes.Add(ev.HeapBytes())
	}
	c.mu.Unlock()
	return ev.Clone(), nil
}

// hashSets fingerprints a group partition: FNV-64a over group boundaries
// and member IDs in order.
func hashSets(sets [][]shim.AllocID) uint64 {
	h := fnv.New64a()
	w := wire.NewHashWriter(h)
	w.U64(uint64(len(sets)))
	for _, ids := range sets {
		w.U64(uint64(len(ids)))
		for _, id := range ids {
			w.U64(uint64(id))
		}
	}
	return h.Sum64()
}

// copyTrace deep-copies a trace (phases and their stream slices) so the
// context's private trace never aliases the snapshot's mutable slices.
func copyTrace(src *trace.Trace) *trace.Trace {
	tr := &trace.Trace{Phases: make([]trace.Phase, len(src.Phases))}
	copy(tr.Phases, src.Phases)
	for i := range tr.Phases {
		tr.Phases[i].Streams = append([]trace.Stream(nil), tr.Phases[i].Streams...)
	}
	return tr
}
