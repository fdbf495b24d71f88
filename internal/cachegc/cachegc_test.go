package cachegc

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/experiments"
	"hmpt/internal/trace"
	"hmpt/internal/wire"
)

// populate runs a small real campaign through disk caches, filling the
// snapshot and analysis rungs exactly the way production traffic does.
func populate(t *testing.T) (cacheDir, anDir string) {
	t.Helper()
	cacheDir = t.TempDir()
	anDir = filepath.Join(cacheDir, "analyses")
	runCampaign(t, cacheDir, anDir)
	return cacheDir, anDir
}

func testMatrix(t *testing.T) campaign.Matrix {
	t.Helper()
	spec := experiments.CampaignSpec{
		Workloads: []string{"npb.is", "npb.mg"},
		Platforms: []string{"xeonmax"},
	}
	m, err := spec.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func runCampaign(t *testing.T, cacheDir, anDir string) *campaign.Result {
	t.Helper()
	m := testMatrix(t)
	cache, err := trace.NewSnapshotCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	analyses, err := core.NewAnalysisCache(anDir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&campaign.Engine{Cache: cache, Analyses: analyses}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if len(res.CacheErrs) != 0 {
		t.Fatalf("campaign degraded its caches: %v", res.CacheErrs)
	}
	return res
}

func gcOpts(cacheDir, anDir string) Options {
	return Options{CacheDir: cacheDir, AnalysisDir: anDir}
}

// listExt returns the rung's entry paths.
func listExt(t *testing.T, dir, ext string) []string {
	t.Helper()
	var out []string
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ext {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// listSnaps returns the snapshot rung's entry paths, across every
// family directory.
func listSnaps(t *testing.T, cacheDir string) []string {
	t.Helper()
	out, err := filepath.Glob(filepath.Join(cacheDir, "snapshots", "*", "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScanCountsPopulatedCache(t *testing.T) {
	cacheDir, anDir := populate(t)
	usage, err := Scan(gcOpts(cacheDir, anDir))
	if err != nil {
		t.Fatal(err)
	}
	if usage.Snapshots.Entries != 2 || usage.Snapshots.Dead != 0 {
		t.Fatalf("snapshots: %+v, want 2 live", usage.Snapshots)
	}
	if usage.Analyses.Entries != 2 || usage.Analyses.Dead != 0 {
		t.Fatalf("analyses: %+v, want 2 live", usage.Analyses)
	}
	if usage.Staging.Entries != 0 {
		t.Fatalf("staging: %+v, want none", usage.Staging)
	}
	if usage.TotalBytes <= 0 {
		t.Fatalf("total bytes %d", usage.TotalBytes)
	}
}

// TestDeadEntryCollection corrupts a snapshot in place and requires the
// GC to classify it dead, retire it and its emptied family directory,
// and leave a cache the engine still serves correctly.
func TestDeadEntryCollection(t *testing.T) {
	cacheDir, anDir := populate(t)
	snaps := listSnaps(t, cacheDir)
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots, want 2", len(snaps))
	}
	if err := os.WriteFile(snaps[0], []byte("torn write residue, unreadable by any build"), 0o644); err != nil {
		t.Fatal(err)
	}

	usage, err := Scan(gcOpts(cacheDir, anDir))
	if err != nil {
		t.Fatal(err)
	}
	if usage.Snapshots.Dead != 1 {
		t.Fatalf("snapshots: %+v, want 1 dead", usage.Snapshots)
	}

	rep, err := Run(gcOpts(cacheDir, anDir))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadEntries != 1 {
		t.Fatalf("report: %+v, want 1 dead entry", rep)
	}
	if _, err := os.Stat(filepath.Dir(snaps[0])); !os.IsNotExist(err) {
		t.Fatal("dead snapshot's family directory survived collection")
	}
	if got := len(listSnaps(t, cacheDir)); got != 1 {
		t.Fatalf("%d snapshots survive, want 1", got)
	}
	after, err := Scan(gcOpts(cacheDir, anDir))
	if err != nil {
		t.Fatal(err)
	}
	if after.Snapshots.Dead != 0 || after.Analyses.Dead != 0 {
		t.Fatalf("dead entries survive collection: %+v", after)
	}

	// The cache must still serve: analyses are intact, so the re-run is
	// all analysis hits and executes nothing.
	res := runCampaign(t, cacheDir, anDir)
	if d := res.Work.Kernels; d != 0 {
		t.Fatalf("post-GC campaign executed %d kernels; analyses were intact", d)
	}
	if res.AnalysisHits != len(res.Cells) {
		t.Fatalf("post-GC campaign: %d/%d analysis hits", res.AnalysisHits, len(res.Cells))
	}
}

// TestLRUEvictionFollowsAtime ages one snapshot and requires the size
// bound to evict it (and retire its emptied family directory) while
// fresher entries survive.
func TestLRUEvictionFollowsAtime(t *testing.T) {
	cacheDir, anDir := populate(t)
	snaps := listSnaps(t, cacheDir)
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots, want 2", len(snaps))
	}
	old, fresh := snaps[0], snaps[1]

	// Budget from plain stat sizes: a Scan here would *read* every entry
	// to classify it, and on a relatime mount that read would promote the
	// aged snapshot's atime and erase the ordering this test sets up.
	var budget int64 = -1
	for _, p := range append(listSnaps(t, cacheDir), listExt(t, anDir, ".anl")...) {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		budget += fi.Size()
	}
	past := time.Now().Add(-24 * time.Hour)
	if err := os.Chtimes(old, past, past); err != nil {
		t.Fatal(err)
	}

	opts := gcOpts(cacheDir, anDir)
	opts.MaxBytes = budget
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EvictedEntries == 0 {
		t.Fatal("over-budget cache evicted nothing")
	}
	if rep.LiveBytes > budget {
		t.Fatalf("live %d bytes exceeds the %d byte bound", rep.LiveBytes, budget)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatal("the oldest-atime snapshot survived eviction")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("the fresh snapshot did not survive: %v", err)
	}
	// Its family directory goes with it: the family index is the
	// directory listing, so it can never advertise the evicted base.
	if _, err := os.Stat(filepath.Dir(old)); !os.IsNotExist(err) {
		t.Fatal("the evicted snapshot's emptied family directory survived")
	}
}

// TestStagingSweepRespectsAge plants fsatomic staging residue of mixed
// ages and requires only the aged files to be swept.
func TestStagingSweepRespectsAge(t *testing.T) {
	cacheDir, anDir := populate(t)
	famDir := filepath.Dir(listSnaps(t, cacheDir)[0])

	oldFiles := []string{
		filepath.Join(cacheDir, ".dead.snap.tmp123"),
		filepath.Join(anDir, ".dead.anl.tmp456"),
		filepath.Join(famDir, ".dead.snap.tmp789"),
	}
	freshFile := filepath.Join(cacheDir, ".inflight.snap.tmp42")
	past := time.Now().Add(-2 * time.Hour)
	for _, p := range oldFiles {
		if err := os.WriteFile(p, []byte("staging"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, past, past); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(freshFile, []byte("staging"), 0o644); err != nil {
		t.Fatal(err)
	}

	opts := gcOpts(cacheDir, anDir)
	opts.StagingAge = time.Hour
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StagingRemoved != len(oldFiles) {
		t.Fatalf("swept %d staging files, want %d", rep.StagingRemoved, len(oldFiles))
	}
	for _, p := range oldFiles {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("aged staging file %s survived", p)
		}
	}
	if _, err := os.Stat(freshFile); err != nil {
		t.Fatalf("in-flight staging file was swept: %v", err)
	}
}

// TestDryRunRemovesNothing requires a dry-run pass to report the full
// collection while leaving every file in place.
func TestDryRunRemovesNothing(t *testing.T) {
	cacheDir, anDir := populate(t)
	snaps := listSnaps(t, cacheDir)
	if err := os.WriteFile(snaps[0], []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := gcOpts(cacheDir, anDir)
	opts.MaxBytes = 1 // would evict everything live
	opts.DryRun = true
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadEntries == 0 || rep.EvictedEntries == 0 {
		t.Fatalf("dry run reported no work: %+v", rep)
	}
	usage, err := Scan(gcOpts(cacheDir, anDir))
	if err != nil {
		t.Fatal(err)
	}
	if usage.Snapshots.Entries != 2 || usage.Analyses.Entries != 2 {
		t.Fatalf("dry run removed files: %+v", usage)
	}
}

// TestRetiredLayoutCollected builds a cache tree in the retired layout —
// flat <id>.snap files plus a families/<family>/<id>.member record per
// snapshot — and requires Scan to report all of it dead, Run to leave no
// file behind, and a campaign over the tree afterwards to produce its
// normal cells.
func TestRetiredLayoutCollected(t *testing.T) {
	refDir := t.TempDir()
	ref := runCampaign(t, refDir, filepath.Join(refDir, "analyses"))
	refCache, err := trace.NewSnapshotCache(refDir)
	if err != nil {
		t.Fatal(err)
	}

	cacheDir := t.TempDir()
	anDir := filepath.Join(cacheDir, "analyses")
	m := testMatrix(t)
	for _, w := range m.Workloads {
		key := core.SnapshotKeyFor(w.Name, w.Options)
		raw, err := os.ReadFile(refCache.Path(key))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cacheDir, key.ID()+".snap"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		// The retired member record: magic, then the member's scale,
		// iterations and seed, sealed.
		var e wire.Encoder
		e.Raw([]byte("HMPTFMBR"))
		e.F64(key.Scale)
		e.I64(int64(key.Iterations))
		e.U64(key.Seed)
		famDir := filepath.Join(cacheDir, "families", key.Family().ID())
		if err := os.MkdirAll(famDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(famDir, key.ID()+".member"), e.Seal(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	usage, err := Scan(gcOpts(cacheDir, anDir))
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(m.Workloads); usage.Snapshots.Entries != want || usage.Snapshots.Dead != want {
		t.Fatalf("snapshots: %+v, want %d entries, all dead", usage.Snapshots, want)
	}
	rep, err := Run(gcOpts(cacheDir, anDir))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadEntries != usage.Snapshots.Dead {
		t.Fatalf("report: %+v, want %d dead entries", rep, usage.Snapshots.Dead)
	}
	err = filepath.WalkDir(cacheDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			t.Errorf("file %s survived collection", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(cacheDir, "families")); !os.IsNotExist(err) {
		t.Error("the retired families/ root survived collection")
	}

	res := runCampaign(t, cacheDir, anDir)
	if res.Executions != ref.Executions || len(res.Cells) != len(ref.Cells) {
		t.Fatalf("post-GC campaign: %d executions, %d cells; want %d, %d",
			res.Executions, len(res.Cells), ref.Executions, len(ref.Cells))
	}
	for i := range res.Cells {
		if !reflect.DeepEqual(res.Cells[i].Analysis, ref.Cells[i].Analysis) {
			t.Errorf("cell %s/%s differs from the reference run", res.Cells[i].Workload, res.Cells[i].Platform)
		}
	}
}
