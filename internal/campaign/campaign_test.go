package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"hmpt/internal/core"
	"hmpt/internal/memsim"
	"hmpt/internal/trace"
	"hmpt/internal/workloads"

	_ "hmpt/internal/workloads/chase"
	_ "hmpt/internal/workloads/stream"
	_ "hmpt/internal/workloads/synth"
)

// testMatrix builds a 3-workload × 2-platform matrix over fast registry
// workloads. The platforms are constructed once so result comparisons
// can DeepEqual resolved options.
func testMatrix(t *testing.T) Matrix {
	t.Helper()
	var ws []Workload
	for _, name := range []string{"chase", "stream", "synth"} {
		name := name
		ws = append(ws, Workload{
			Name: name,
			Factory: func() workloads.Workload {
				w, err := workloads.New(name)
				if err != nil {
					panic(err)
				}
				return w
			},
			Options: core.Options{Seed: 1},
		})
	}
	return Matrix{
		Workloads: ws,
		Platforms: []Platform{
			{Name: "xeonmax", Platform: memsim.XeonMax9468()},
			{Name: "dual-xeonmax", Platform: memsim.DualXeonMax9468()},
		},
	}
}

// TestCampaignExecutesEachKernelOnce is the acceptance criterion: a
// campaign over 3 workloads × 2 platform presets executes each kernel
// exactly once, and every replayed cell is byte-identical to a live
// Tuner.Analyze of the same scenario.
func TestCampaignExecutesEachKernelOnce(t *testing.T) {
	t.Parallel()
	m := testMatrix(t)
	res, err := (&Engine{}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if got := res.Work.Kernels; got != int64(len(m.Workloads)) {
		t.Errorf("campaign executed %d kernels, want %d (one per workload)", got, len(m.Workloads))
	}
	if res.Snapshots != len(m.Workloads) || res.Executions != len(m.Workloads) || res.CacheHits != 0 {
		t.Errorf("snapshots=%d executions=%d hits=%d, want %d/%d/0",
			res.Snapshots, res.Executions, res.CacheHits, len(m.Workloads), len(m.Workloads))
	}
	if want := len(m.Workloads) * len(m.Platforms); len(res.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(res.Cells), want)
	}
	for i := range res.Cells {
		cell := &res.Cells[i]
		w, err := workloads.New(cell.Workload)
		if err != nil {
			t.Fatal(err)
		}
		opts := cell.Options
		opts.Snapshot = nil
		live, err := core.New(w, opts).Analyze()
		if err != nil {
			t.Fatalf("live %s/%s: %v", cell.Workload, cell.Platform, err)
		}
		if !reflect.DeepEqual(live, cell.Analysis) {
			t.Errorf("cell %s/%s differs from live analysis", cell.Workload, cell.Platform)
		}
	}
}

// TestCampaignDiskCache proves the content-addressed cache carries
// captures across engine runs: the second run executes zero kernels,
// serves every snapshot from disk, and produces identical results.
func TestCampaignDiskCache(t *testing.T) {
	t.Parallel()
	m := testMatrix(t)
	cache, err := trace.NewSnapshotCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first, err := (&Engine{Cache: cache}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Err(); err != nil {
		t.Fatal(err)
	}
	if first.Executions != len(m.Workloads) || first.CacheHits != 0 {
		t.Errorf("first run: executions=%d hits=%d, want %d/0", first.Executions, first.CacheHits, len(m.Workloads))
	}

	second, err := (&Engine{Cache: cache}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Err(); err != nil {
		t.Fatal(err)
	}
	if got := second.Work.Kernels; got != 0 {
		t.Errorf("cached run executed %d kernels, want 0", got)
	}
	if second.Executions != 0 || second.CacheHits != len(m.Workloads) {
		t.Errorf("second run: executions=%d hits=%d, want 0/%d", second.Executions, second.CacheHits, len(m.Workloads))
	}
	for i := range first.Cells {
		a, b := &first.Cells[i], &second.Cells[i]
		if !reflect.DeepEqual(a.Analysis, b.Analysis) {
			t.Errorf("cell %s/%s: cached replay differs from captured replay", a.Workload, a.Platform)
		}
	}
}

// TestCampaignWarmRunsZeroSamplePasses: replayed cells reconstruct
// their IBS reports from the sample counts embedded in each snapshot,
// so a cold campaign samples exactly once per capture (the count pass)
// and a warm campaign — snapshots served from the disk cache — performs
// no sampling at all, on top of executing no kernels.
func TestCampaignWarmRunsZeroSamplePasses(t *testing.T) {
	t.Parallel()
	m := testMatrix(t)
	cache, err := trace.NewSnapshotCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first, err := (&Engine{Cache: cache}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Err(); err != nil {
		t.Fatal(err)
	}
	// Cold: one count pass per distinct capture, none per cell — the
	// cells replay the embedded counts even on the first run.
	if got := first.Work.SamplePasses; got != int64(first.Snapshots) {
		t.Errorf("cold campaign ran %d sampling passes, want %d (one per capture)", got, first.Snapshots)
	}

	second, err := (&Engine{Cache: cache}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Err(); err != nil {
		t.Fatal(err)
	}
	if got := second.Work.SamplePasses; got != 0 {
		t.Errorf("warm campaign ran %d sampling passes, want 0", got)
	}
	if got := second.Work.Kernels; got != 0 {
		t.Errorf("warm campaign executed %d kernels, want 0", got)
	}
	for i := range first.Cells {
		a, b := &first.Cells[i], &second.Cells[i]
		if !reflect.DeepEqual(a.Analysis, b.Analysis) {
			t.Errorf("cell %s/%s: sampling-free replay differs from cold analysis", a.Workload, a.Platform)
		}
	}
}

// TestCampaignSamplerVariantsOwnCaptures: sampler controls are capture
// inputs — a variant changing the IBS period addresses its own snapshot
// instead of replaying counts captured under a different period.
func TestCampaignSamplerVariantsOwnCaptures(t *testing.T) {
	m := testMatrix(t)
	m.Workloads = m.Workloads[:1]
	m.Platforms = m.Platforms[:1]
	m.Variants = []Variant{
		{Name: "base"},
		{Name: "period14", Apply: func(o *core.Options) { o.SamplePeriod = 1 << 14 }},
	}
	res, err := (&Engine{}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Snapshots != 2 {
		t.Errorf("snapshots=%d, want 2 (non-default period needs its own capture)", res.Snapshots)
	}
	base := res.Cell(m.Workloads[0].Name, "xeonmax", "base")
	p14 := res.Cell(m.Workloads[0].Name, "xeonmax", "period14")
	if base == nil || p14 == nil {
		t.Fatal("missing cells")
	}
	if p14.Analysis.SampleCount <= base.Analysis.SampleCount {
		t.Errorf("quartered period did not raise the sample count (%d vs %d)",
			p14.Analysis.SampleCount, base.Analysis.SampleCount)
	}
}

// TestCampaignRecoversCorruptCacheEntry: an unreadable cache entry is
// treated as a miss, recaptured, and overwritten with a valid snapshot.
func TestCampaignRecoversCorruptCacheEntry(t *testing.T) {
	m := testMatrix(t)
	m.Workloads = m.Workloads[:1]
	cache, err := trace.NewSnapshotCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := core.SnapshotKeyFor(m.Workloads[0].Name, m.Workloads[0].Options)
	if err := os.MkdirAll(filepath.Dir(cache.Path(key)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.Path(key), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := (&Engine{Cache: cache}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Executions != 1 || res.CacheHits != 0 {
		t.Errorf("executions=%d hits=%d, want 1/0 after corrupt entry", res.Executions, res.CacheHits)
	}
	if len(res.CacheErrs) != 1 {
		t.Errorf("got %d cache errors, want 1 (the corrupt load)", len(res.CacheErrs))
	}
	if _, ok, err := cache.Load(key); err != nil || !ok {
		t.Errorf("cache entry not healed: ok=%v err=%v", ok, err)
	}
}

// TestCampaignCacheStoreFailureIsNonFatal: when the cache directory
// disappears mid-run, the capture in hand still feeds every cell; only
// a store warning is recorded.
func TestCampaignCacheStoreFailureIsNonFatal(t *testing.T) {
	m := testMatrix(t)
	m.Workloads = m.Workloads[:1]
	dir := filepath.Join(t.TempDir(), "cache")
	cache, err := trace.NewSnapshotCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the cache directory with a plain file: every write fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := (&Engine{Cache: cache}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("store failure sank the campaign: %v", err)
	}
	if len(res.CacheErrs) != 1 {
		t.Errorf("got %d cache errors, want 1", len(res.CacheErrs))
	}
	for i := range res.Cells {
		if res.Cells[i].Analysis == nil {
			t.Errorf("cell %s/%s missing analysis", res.Cells[i].Workload, res.Cells[i].Platform)
		}
	}
}

// TestCampaignDeterministicParallelism: the result is identical for any
// worker count — parallelism changes scheduling only.
func TestCampaignDeterministicParallelism(t *testing.T) {
	m := testMatrix(t)
	var base *Result
	for _, par := range []int{1, 2, 7} {
		res, err := (&Engine{Parallelism: par}).Run(m)
		if err != nil {
			t.Fatalf("parallelism=%d: %v", par, err)
		}
		if err := res.Err(); err != nil {
			t.Fatalf("parallelism=%d: %v", par, err)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Errorf("campaign result differs at Parallelism=%d", par)
		}
	}
}

// TestCampaignWarmRunsZeroPlacementPasses is PR 4's acceptance
// criterion: with the analysis cache on disk, a cold campaign runs one
// probe pass and one sweep pass per cell, and a warm campaign — a fresh
// engine over the same caches — runs zero placement costing on top of
// zero kernels and zero sampling, never resolves a snapshot, and
// serves byte-identical analyses.
func TestCampaignWarmRunsZeroPlacementPasses(t *testing.T) {
	t.Parallel()
	m := testMatrix(t)
	snapCache, err := trace.NewSnapshotCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	anCache, err := core.NewAnalysisCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first, err := (&Engine{Cache: snapCache, Analyses: anCache}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Err(); err != nil {
		t.Fatal(err)
	}
	// Cold: every cell probes and sweeps exactly once (two passes per
	// analysis), nothing is served from the analysis cache.
	if got, want := first.Work.SweepEvaluations, int64(2*len(first.Cells)); got != want {
		t.Errorf("cold campaign ran %d placement passes, want %d (probe + sweep per cell)", got, want)
	}
	if first.AnalysisHits != 0 {
		t.Errorf("cold campaign reported %d analysis hits, want 0", first.AnalysisHits)
	}

	second, err := (&Engine{Cache: snapCache, Analyses: anCache}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Err(); err != nil {
		t.Fatal(err)
	}
	if got := second.Work.SweepEvaluations; got != 0 {
		t.Errorf("warm campaign ran %d placement passes, want 0", got)
	}
	if got := second.Work.Kernels; got != 0 {
		t.Errorf("warm campaign executed %d kernels, want 0", got)
	}
	if got := second.Work.SamplePasses; got != 0 {
		t.Errorf("warm campaign ran %d sampling passes, want 0", got)
	}
	if second.AnalysisHits != len(second.Cells) {
		t.Errorf("warm campaign served %d/%d cells from the analysis cache", second.AnalysisHits, len(second.Cells))
	}
	// Fully warm: no reference run was even needed.
	if second.Snapshots != 0 || second.Executions != 0 || second.CacheHits != 0 {
		t.Errorf("warm campaign resolved %d snapshots (%d executed, %d cached), want none",
			second.Snapshots, second.Executions, second.CacheHits)
	}
	for i := range first.Cells {
		a, b := &first.Cells[i], &second.Cells[i]
		if !b.AnalysisFromCache {
			t.Errorf("cell %s/%s not marked analysis-from-cache", b.Workload, b.Platform)
		}
		if !reflect.DeepEqual(a.Analysis, b.Analysis) {
			t.Errorf("cell %s/%s: cached analysis differs from cold analysis", a.Workload, a.Platform)
		}
	}
}

// TestCampaignDedupesEqualAnalysisKeys: cells whose resolved options
// produce the same analysis key — e.g. variants differing only in
// SweepParallelism, which the key deliberately ignores because results
// are invariant to it — share one probe/sweep computation even on a
// cold run.
func TestCampaignDedupesEqualAnalysisKeys(t *testing.T) {
	t.Parallel()
	m := testMatrix(t)
	m.Workloads = m.Workloads[:1]
	m.Platforms = m.Platforms[:1]
	m.Variants = []Variant{
		{Name: "par1", Apply: func(o *core.Options) { o.SweepParallelism = 1 }},
		{Name: "par4", Apply: func(o *core.Options) { o.SweepParallelism = 4 }},
	}
	res, err := (&Engine{Flights: NewFlightGroup()}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if got := res.Work.SweepEvaluations; got != 2 {
		t.Errorf("cold campaign ran %d placement passes for 2 equal-key cells, want 2 (one shared probe + sweep)", got)
	}
	if res.AnalysisHits != 0 {
		t.Errorf("cold equal-key cells reported %d analysis hits, want 0", res.AnalysisHits)
	}
	if !reflect.DeepEqual(res.Cells[0].Analysis, res.Cells[1].Analysis) {
		t.Error("equal-key cells produced different analyses")
	}

	// GroupBy cells resolve their keys (and probe) only after stage 1:
	// a cold run still computes once with zero hits, and a warm re-run
	// over the same group serves every cell from it.
	m.Workloads[0].Options.GroupBy = func(string) string { return "all" }
	flights := NewFlightGroup()
	cold, err := (&Engine{Flights: flights}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Err(); err != nil {
		t.Fatal(err)
	}
	if got := cold.Work.SweepEvaluations; got != 2 {
		t.Errorf("cold GroupBy campaign ran %d placement passes for 2 equal-key cells, want 2", got)
	}
	if cold.AnalysisHits != 0 {
		t.Errorf("cold GroupBy cells reported %d analysis hits, want 0", cold.AnalysisHits)
	}
	warm, err := (&Engine{Flights: flights}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Err(); err != nil {
		t.Fatal(err)
	}
	if got := warm.Work.SweepEvaluations; got != 0 {
		t.Errorf("warm GroupBy campaign ran %d placement passes, want 0", got)
	}
	if warm.AnalysisHits != len(warm.Cells) {
		t.Errorf("warm GroupBy campaign served %d/%d cells from the group", warm.AnalysisHits, len(warm.Cells))
	}
	for i := range cold.Cells {
		if !reflect.DeepEqual(cold.Cells[i].Analysis, warm.Cells[i].Analysis) {
			t.Errorf("GroupBy cell %d: warm analysis differs from cold", i)
		}
	}
}

// TestSharedGroupRetainsDiskHits: a disk-cache hit is retained in the
// flight group like a computed value, so once one run has served a key
// from disk, a later run over the same group is a memory hit — zero
// analysis-cache and zero snapshot-cache loads — and still reports its
// cells as analysis-cache hits with byte-identical results. The GroupBy
// workload covers the capture rung: its cells resolve their snapshot
// before probing.
func TestSharedGroupRetainsDiskHits(t *testing.T) {
	m := testMatrix(t)
	m.Workloads[2].Options.GroupBy = func(string) string { return "all" }
	snapDir, anDir := t.TempDir(), t.TempDir()
	open := func() (*trace.SnapshotCache, *core.AnalysisCache) {
		t.Helper()
		snaps, err := trace.NewSnapshotCache(snapDir)
		if err != nil {
			t.Fatal(err)
		}
		analyses, err := core.NewAnalysisCache(anDir)
		if err != nil {
			t.Fatal(err)
		}
		return snaps, analyses
	}
	snaps, analyses := open()
	cold, err := (&Engine{Cache: snaps, Analyses: analyses}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Err(); err != nil {
		t.Fatal(err)
	}

	snaps, analyses = open()
	eng := &Engine{Cache: snaps, Analyses: analyses, Flights: NewFlightGroup()}
	for run := 0; run < 2; run++ {
		snapBefore, anBefore := snaps.Stats(), analyses.Stats()
		res, err := eng.Run(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		if res.AnalysisHits != len(res.Cells) {
			t.Errorf("run %d served %d/%d cells from a cache", run, res.AnalysisHits, len(res.Cells))
		}
		for i := range res.Cells {
			if !reflect.DeepEqual(res.Cells[i].Analysis, cold.Cells[i].Analysis) {
				t.Errorf("run %d cell %d differs from the cold run", run, i)
			}
		}
		snapLoads := snaps.Stats().Hits - snapBefore.Hits + snaps.Stats().Misses - snapBefore.Misses
		anLoads := analyses.Stats().Hits - anBefore.Hits + analyses.Stats().Misses - anBefore.Misses
		if run == 0 && (anLoads != int64(len(res.Cells)) || snapLoads != 1) {
			t.Errorf("first shared run: %d analysis loads, %d snapshot loads, want %d/1", anLoads, snapLoads, len(res.Cells))
		}
		if run == 1 && (anLoads != 0 || snapLoads != 0) {
			t.Errorf("second shared run: %d analysis loads, %d snapshot loads, want 0/0 (disk hits retained)", anLoads, snapLoads)
		}
	}
}

// TestEqualKeyGroupByCellsProbeOnce: GroupBy cells whose variants leave
// the analysis key alone probe the analysis cache once per distinct key,
// not once per cell, and all of them are served from that one load.
func TestEqualKeyGroupByCellsProbeOnce(t *testing.T) {
	m := testMatrix(t)
	m.Workloads = m.Workloads[:1]
	m.Platforms = m.Platforms[:1]
	m.Workloads[0].Options.GroupBy = func(string) string { return "all" }
	m.Variants = []Variant{
		{Name: "par1", Apply: func(o *core.Options) { o.SweepParallelism = 1 }},
		{Name: "par2", Apply: func(o *core.Options) { o.SweepParallelism = 2 }},
		{Name: "par4", Apply: func(o *core.Options) { o.SweepParallelism = 4 }},
	}
	dir := t.TempDir()
	analyses, err := core.NewAnalysisCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Engine{Analyses: analyses}).Run(m); err != nil {
		t.Fatal(err)
	}
	analyses, err = core.NewAnalysisCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Engine{Analyses: analyses}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.AnalysisHits != len(res.Cells) {
		t.Errorf("warm run served %d/%d cells from a cache", res.AnalysisHits, len(res.Cells))
	}
	if st := analyses.Stats(); st.Hits+st.Misses != 1 {
		t.Errorf("warm run made %d analysis-cache loads for one distinct key, want 1", st.Hits+st.Misses)
	}
}

// TestCampaignRecoversCorruptAnalysisEntry: an unreadable analysis-cache
// entry is a non-fatal degradation — the cell recomputes through the
// shared context, the corruption is overwritten with a valid entry, and
// the recomputed analysis is byte-identical to an uncached run.
func TestCampaignRecoversCorruptAnalysisEntry(t *testing.T) {
	m := testMatrix(t)
	m.Workloads = m.Workloads[:1]
	m.Platforms = m.Platforms[:1]
	anCache, err := core.NewAnalysisCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := m.Workloads[0].Options
	opts.Platform = m.Platforms[0].Platform
	key, err := core.AnalysisKeyFor(m.Workloads[0].Name, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(anCache.Path(key), []byte("not an analysis"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := (&Engine{Analyses: anCache}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.AnalysisHits != 0 {
		t.Errorf("analysis hits = %d, want 0 after corrupt entry", res.AnalysisHits)
	}
	if len(res.CacheErrs) != 1 {
		t.Errorf("got %d cache errors, want 1 (the corrupt load)", len(res.CacheErrs))
	}
	healed, ok, err := anCache.Load(key)
	if err != nil || !ok {
		t.Fatalf("analysis entry not healed: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(res.Cells[0].Analysis, healed) {
		t.Error("healed entry differs from the recomputed analysis")
	}
	// Truncating a valid entry degrades the same way.
	good, err := os.ReadFile(anCache.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(anCache.Path(key), good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	res2, err := (&Engine{Analyses: anCache}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.Err(); err != nil {
		t.Fatal(err)
	}
	if len(res2.CacheErrs) != 1 {
		t.Errorf("truncated entry: got %d cache errors, want 1", len(res2.CacheErrs))
	}
	if !reflect.DeepEqual(res.Cells[0].Analysis, res2.Cells[0].Analysis) {
		t.Error("recomputed analysis after truncation differs")
	}
}

// TestCampaignAnalysisCacheStoreFailureIsNonFatal: when the analysis
// cache directory disappears mid-run, cells still analyse; only a
// store warning is recorded.
func TestCampaignAnalysisCacheStoreFailureIsNonFatal(t *testing.T) {
	m := testMatrix(t)
	m.Workloads = m.Workloads[:1]
	m.Platforms = m.Platforms[:1]
	dir := filepath.Join(t.TempDir(), "analyses")
	anCache, err := core.NewAnalysisCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := (&Engine{Analyses: anCache}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("analysis store failure sank the campaign: %v", err)
	}
	if len(res.CacheErrs) != 1 {
		t.Errorf("got %d cache errors, want 1", len(res.CacheErrs))
	}
	if res.Cells[0].Analysis == nil {
		t.Error("cell missing analysis after store failure")
	}
}

// TestCampaignVariants: variants that only change analysis options share
// one capture; variants that change capture inputs get their own.
func TestCampaignVariants(t *testing.T) {
	t.Parallel()
	m := testMatrix(t)
	m.Workloads = m.Workloads[:1]
	m.Platforms = m.Platforms[:1]
	m.Variants = []Variant{
		{Name: "base"},
		{Name: "runs5", Apply: func(o *core.Options) { o.Runs = 5 }},
		{Name: "seed9", Apply: func(o *core.Options) { o.Seed = 9 }},
	}
	res, err := (&Engine{}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	// base and runs5 share a capture; seed9 needs its own.
	if got := res.Work.Kernels; got != 2 {
		t.Errorf("executed %d kernels, want 2 (runs variant shares the capture)", got)
	}
	if res.Snapshots != 2 {
		t.Errorf("snapshots=%d, want 2", res.Snapshots)
	}
	if c := res.Cell("chase", "xeonmax", "runs5"); c == nil || c.Analysis.Runs != 5 {
		t.Errorf("runs5 variant not applied: %+v", c)
	}
	base := res.Cell("chase", "xeonmax", "base")
	seed9 := res.Cell("chase", "xeonmax", "seed9")
	if base == nil || seed9 == nil {
		t.Fatal("missing cells")
	}
	if reflect.DeepEqual(base.Analysis.Configs, seed9.Analysis.Configs) {
		t.Error("seed variant produced identical measurements; expected different noise draws")
	}
}

// TestConcurrentEnginesShareCacheDir is the multi-process-campaign
// contract exercised in-process: two engines with private groups race
// the same matrix against one snapshot-cache and one analysis-cache
// directory. Both must succeed with byte-identical results, the shared
// directories must end up with exactly one complete entry per key (no
// stranded temp files, no torn entries — every publish staged under a
// unique temp name and renamed atomically), and a third, warm engine
// must serve every cell from the caches with zero kernel executions.
func TestConcurrentEnginesShareCacheDir(t *testing.T) {
	t.Parallel()
	m := testMatrix(t)
	snapDir := t.TempDir()
	anDir := t.TempDir()

	run := func() (*Result, error) {
		snaps, err := trace.NewSnapshotCache(snapDir)
		if err != nil {
			return nil, err
		}
		analyses, err := core.NewAnalysisCache(anDir)
		if err != nil {
			return nil, err
		}
		eng := &Engine{Cache: snaps, Analyses: analyses, Flights: NewFlightGroup()}
		res, err := eng.Run(m)
		if err != nil {
			return nil, err
		}
		return res, res.Err()
	}

	results := make([]*Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range results {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = run()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		if len(results[i].CacheErrs) != 0 {
			t.Errorf("engine %d degraded its caches: %v", i, results[i].CacheErrs)
		}
	}
	for i := range results[0].Cells {
		a, b := &results[0].Cells[i], &results[1].Cells[i]
		if !reflect.DeepEqual(a.Analysis, b.Analysis) {
			t.Errorf("cell %s/%s differs between racing engines", a.Workload, a.Platform)
		}
	}

	// Every file anywhere in either tree — family directories included —
	// is a published entry.
	for _, dir := range []string{snapDir, anDir} {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			if ext := filepath.Ext(path); ext != ".snap" && ext != ".anl" {
				t.Errorf("stray file %q left in shared cache tree", path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	warm, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Work.Kernels; got != 0 {
		t.Errorf("warm engine executed %d kernels, want 0", got)
	}
	if warm.AnalysisHits != len(warm.Cells) {
		t.Errorf("warm engine served %d/%d cells from the analysis cache", warm.AnalysisHits, len(warm.Cells))
	}
	for i := range warm.Cells {
		if !reflect.DeepEqual(warm.Cells[i].Analysis, results[0].Cells[i].Analysis) {
			t.Errorf("warm cell %s/%s differs from the racing engines' result",
				warm.Cells[i].Workload, warm.Cells[i].Platform)
		}
	}
}

// TestCampaignDerivesIterationFamily is the PR's acceptance criterion:
// a campaign sweeping 4 iteration settings of one family workload
// executes exactly one kernel — the family base — and derives the
// other three captures, each byte-identical to a live analysis of its
// scenario.
func TestCampaignDerivesIterationFamily(t *testing.T) {
	t.Parallel()
	m := testMatrix(t)
	m.Workloads = m.Workloads[1:2] // stream: an IterationFamily workload
	m.Platforms = m.Platforms[:1]
	m.Variants = []Variant{
		{Name: "i2", Apply: func(o *core.Options) { o.Iterations = 2 }},
		{Name: "i4", Apply: func(o *core.Options) { o.Iterations = 4 }},
		{Name: "i6", Apply: func(o *core.Options) { o.Iterations = 6 }},
		{Name: "i8", Apply: func(o *core.Options) { o.Iterations = 8 }},
	}
	res, err := (&Engine{}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if got := res.Work.Kernels; got != 1 {
		t.Errorf("campaign executed %d kernels, want 1 (one per family)", got)
	}
	if got := res.Work.Derived; got != 3 {
		t.Errorf("campaign derived %d snapshots, want 3", got)
	}
	if res.Snapshots != 4 || res.Executions != 1 || res.Derived != 3 || res.CacheHits != 0 {
		t.Errorf("snapshots=%d executions=%d derived=%d hits=%d, want 4/1/3/0",
			res.Snapshots, res.Executions, res.Derived, res.CacheHits)
	}
	derivedCells := 0
	for i := range res.Cells {
		cell := &res.Cells[i]
		if cell.Derived {
			derivedCells++
		}
		w, err := workloads.New(cell.Workload)
		if err != nil {
			t.Fatal(err)
		}
		opts := cell.Options
		opts.Snapshot = nil
		live, err := core.New(w, opts).Analyze()
		if err != nil {
			t.Fatalf("live %s/%s: %v", cell.Workload, cell.Variant, err)
		}
		if !reflect.DeepEqual(live, cell.Analysis) {
			t.Errorf("cell %s/%s differs from live analysis", cell.Workload, cell.Variant)
		}
	}
	if derivedCells != 3 {
		t.Errorf("%d cells flagged Derived, want 3", derivedCells)
	}
}

// TestCampaignDerivesFromDiskFamilyIndex proves derivation works across
// processes: a fresh engine whose requested key is absent from the
// snapshot cache finds a family sibling through the on-disk family
// index and derives from it with zero kernel executions — and the
// derived snapshot is published, so a third engine gets a plain cache
// hit.
func TestCampaignDerivesFromDiskFamilyIndex(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	matrix := func(iters int) Matrix {
		m := testMatrix(t)
		m.Workloads = m.Workloads[1:2] // stream
		m.Workloads[0].Options.Iterations = iters
		m.Platforms = m.Platforms[:1]
		return m
	}
	run := func(iters int) *Result {
		t.Helper()
		cache, err := trace.NewSnapshotCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&Engine{Cache: cache}).Run(matrix(iters))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		if len(res.CacheErrs) != 0 {
			t.Fatalf("cache errors: %v", res.CacheErrs)
		}
		return res
	}

	if res := run(5); res.Executions != 1 {
		t.Fatalf("seed run: executions=%d, want 1", res.Executions)
	}
	res := run(7)
	if got := res.Work.Kernels; got != 0 {
		t.Errorf("family-index run executed %d kernels, want 0", got)
	}
	if res.Executions != 0 || res.Derived != 1 || res.CacheHits != 0 {
		t.Errorf("executions=%d derived=%d hits=%d, want 0/1/0", res.Executions, res.Derived, res.CacheHits)
	}
	if res := run(7); res.CacheHits != 1 || res.Derived != 0 {
		t.Errorf("derived snapshot was not published: hits=%d derived=%d, want 1/0", res.CacheHits, res.Derived)
	}
}
