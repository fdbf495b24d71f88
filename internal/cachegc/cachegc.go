// Package cachegc implements lifecycle management for the on-disk cache
// ladder: usage accounting and garbage collection across the snapshot
// and analysis rungs.
//
// Two collection regimes compose:
//
//   - Dead-entry collection. An entry is dead when no current build can
//     ever read it: its codec seal fails (torn write that slipped past a
//     crash), its magic or version is wrong (written by a codec this
//     build no longer speaks), it is filed under a name no lookup forms,
//     or it belongs to a retired layout — flat <cache>/*.snap files and
//     the <cache>/families/ member records of the older store. Dead
//     entries are removed unconditionally; they are pure waste.
//   - LRU-by-atime eviction. Live entries are evicted oldest-access-first
//     until the cache fits a size bound. Entries from old kernel epochs
//     are never addressed by a current build (the epoch is part of the
//     key hash), so they simply stop being accessed and age to the front
//     of the eviction queue — no epoch bookkeeping needed. A snapshot's
//     family membership is its path, so evicting the file retires the
//     member too; family directories the pass empties are removed.
//
// Orphaned fsatomic staging files (".<name>.tmp*" left by a process
// killed between stage and rename) are swept once they are older than a
// threshold comfortably beyond any in-flight publish.
//
// Everything here is safe to run concurrently with serving daemons and
// campaigns: the GC only ever deletes whole published entries, and every
// reader treats a vanished entry as a cache miss. A freshly stored entry
// has a fresh access time, so a bounded eviction pass prefers genuinely
// cold entries. One caveat: classification reads every entry, which on a
// relatime mount promotes the atime of entries colder than 24h — so a
// scan flattens ordering among the very coldest entries. Within a single
// pass this is harmless (atimes are captured before the reads), and
// across passes LRU only needs cold-vs-hot, not exact cold ranks.
package cachegc

import (
	"os"
	"path/filepath"
	"sort"
	"time"

	"hmpt/internal/core"
	"hmpt/internal/fsatomic"
	"hmpt/internal/trace"
)

// RungUsage is the usage accounting of one cache rung.
type RungUsage struct {
	// Entries and Bytes cover every entry of the rung, live and dead;
	// Dead and DeadBytes the subset no current build can read.
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Dead      int   `json:"dead"`
	DeadBytes int64 `json:"dead_bytes"`
}

func (u *RungUsage) add(bytes int64, dead bool) {
	u.Entries++
	u.Bytes += bytes
	if dead {
		u.Dead++
		u.DeadBytes += bytes
	}
}

// Usage is a full scan of the cache tree.
type Usage struct {
	// Snapshots includes the retired-layout files, all dead.
	Snapshots RungUsage `json:"snapshots"`
	Analyses  RungUsage `json:"analyses"`
	// Staging counts fsatomic temp files; Dead counts those older than
	// the orphan threshold.
	Staging RungUsage `json:"staging"`
	// TotalBytes sums every rung.
	TotalBytes int64 `json:"total_bytes"`
}

// Options configures a scan or collection pass.
type Options struct {
	// CacheDir is the snapshot cache root (holding snapshots/<family>/);
	// empty skips the snapshot rung.
	CacheDir string
	// AnalysisDir is the analysis cache directory; empty skips that
	// rung. A directory nested under CacheDir (the CLI default
	// <cache>/analyses) is handled naturally: the snapshot scan only
	// reads its own directories.
	AnalysisDir string
	// MaxBytes bounds the live snapshot+analysis bytes; 0 means no
	// size-based eviction (dead-entry and staging collection still run).
	MaxBytes int64
	// StagingAge is the minimum age before a staging file counts as
	// orphaned; 0 means 1h. In-flight publishes live milliseconds.
	StagingAge time.Duration
	// DryRun reports what would be collected without removing anything.
	DryRun bool
}

func (o Options) stagingAge() time.Duration {
	if o.StagingAge <= 0 {
		return time.Hour
	}
	return o.StagingAge
}

// Report is the outcome of one GC pass.
type Report struct {
	// Before is the usage at the start of the pass.
	Before Usage `json:"before"`
	// DeadEntries/DeadBytes count removed unreadable entries across all
	// rungs.
	DeadEntries int   `json:"dead_entries"`
	DeadBytes   int64 `json:"dead_bytes"`
	// EvictedEntries/EvictedBytes count live entries evicted by the size
	// bound.
	EvictedEntries int   `json:"evicted_entries"`
	EvictedBytes   int64 `json:"evicted_bytes"`
	// StagingRemoved counts swept orphan staging files.
	StagingRemoved int `json:"staging_removed"`
	// LiveBytes is the surviving snapshot+analysis footprint.
	LiveBytes int64 `json:"live_bytes"`
}

// entry is one scanned cache file.
type entry struct {
	path  string
	bytes int64
	atime time.Time
	dead  bool
}

// subdirs lists the directories directly under root.
func subdirs(root string) []string {
	ents, _ := os.ReadDir(root)
	var out []string
	for _, ent := range ents {
		if ent.IsDir() {
			out = append(out, filepath.Join(root, ent.Name()))
		}
	}
	return out
}

// scan walks the configured cache tree.
func scan(opts Options) (entries []entry, staging []entry, usage Usage, err error) {
	age := opts.stagingAge()
	now := time.Now()

	// visit classifies the files of dir into rung. Staging residue is
	// aged; a file with extension ext is read and is dead unless live
	// accepts it, or dead outright when live is nil (a retired layout).
	// An empty ext takes every file, staging residue included, as dead.
	// Subdirectories and other files are left alone.
	visit := func(dir, ext string, rung *RungUsage, live func(name string, raw []byte) bool) error {
		ents, err := os.ReadDir(dir)
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		for _, ent := range ents {
			name := ent.Name()
			if ent.IsDir() {
				continue
			}
			fi, err := ent.Info()
			if err != nil {
				continue // vanished mid-scan: someone else's cleanup
			}
			e := entry{path: filepath.Join(dir, name), bytes: fi.Size(), atime: atime(fi), dead: true}
			switch {
			case ext == "":
			case fsatomic.IsStaging(name):
				e.dead = now.Sub(fi.ModTime()) >= age
				staging = append(staging, e)
				usage.Staging.add(e.bytes, e.dead)
				continue
			case filepath.Ext(name) != ext:
				continue
			case live != nil:
				raw, err := os.ReadFile(e.path)
				if err != nil {
					continue
				}
				e.dead = !live(name, raw)
			}
			entries = append(entries, e)
			rung.add(e.bytes, e.dead)
		}
		return nil
	}

	if opts.CacheDir != "" {
		if err := visit(opts.CacheDir, ".snap", &usage.Snapshots, nil); err != nil {
			return nil, nil, usage, err
		}
		for _, dir := range subdirs(filepath.Join(opts.CacheDir, "families")) {
			visit(dir, "", &usage.Snapshots, nil)
		}
		// Live when it decodes and its name is the one Load would form
		// for its metadata: a renamed or moved snapshot never loads.
		snapLive := func(name string, raw []byte) bool {
			s, err := trace.DecodeSnapshotBytes(raw)
			return err == nil && trace.MemberName(s.Meta) == name
		}
		for _, dir := range subdirs(filepath.Join(opts.CacheDir, "snapshots")) {
			visit(dir, ".snap", &usage.Snapshots, snapLive)
		}
	}

	if opts.AnalysisDir != "" {
		// Dead when undecodable or filed under a name no lookup will ever
		// form: Load validates the embedded key ID against the file name,
		// so a mismatch can never hit.
		anLive := func(name string, raw []byte) bool {
			an, id, err := core.DecodeAnalysis(raw)
			return err == nil && an != nil && id+".anl" == name
		}
		if err := visit(opts.AnalysisDir, ".anl", &usage.Analyses, anLive); err != nil {
			return nil, nil, usage, err
		}
	}

	usage.TotalBytes = usage.Snapshots.Bytes + usage.Analyses.Bytes + usage.Staging.Bytes
	return entries, staging, usage, nil
}

// Scan reports cache usage without collecting anything.
func Scan(opts Options) (*Usage, error) {
	_, _, usage, err := scan(opts)
	if err != nil {
		return nil, err
	}
	return &usage, nil
}

// Run executes one collection pass: dead entries and aged staging files
// go unconditionally, then live entries are evicted oldest-access-first
// until the snapshot+analysis footprint fits Options.MaxBytes. Family
// directories left empty are removed last, under the current and the
// retired root; a store racing that removal recreates its directory.
func Run(opts Options) (*Report, error) {
	entries, staging, usage, err := scan(opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{Before: usage}
	remove := func(e entry) bool {
		if opts.DryRun {
			return true
		}
		err := os.Remove(e.path)
		return err == nil || os.IsNotExist(err)
	}

	live := entries[:0:0]
	for _, e := range entries {
		if !e.dead {
			live = append(live, e)
		} else if remove(e) {
			rep.DeadEntries++
			rep.DeadBytes += e.bytes
		}
	}

	for _, e := range staging {
		if e.dead && remove(e) {
			rep.StagingRemoved++
		}
	}

	var liveBytes int64
	for _, e := range live {
		liveBytes += e.bytes
	}
	if opts.MaxBytes > 0 && liveBytes > opts.MaxBytes {
		sort.Slice(live, func(i, j int) bool { return live[i].atime.Before(live[j].atime) })
		for _, e := range live {
			if liveBytes <= opts.MaxBytes {
				break
			}
			if !remove(e) {
				continue
			}
			liveBytes -= e.bytes
			rep.EvictedEntries++
			rep.EvictedBytes += e.bytes
		}
	}
	rep.LiveBytes = liveBytes

	if opts.CacheDir != "" && !opts.DryRun {
		for _, root := range []string{"snapshots", "families"} {
			for _, dir := range subdirs(filepath.Join(opts.CacheDir, root)) {
				os.Remove(dir) // fails unless empty
			}
		}
		os.Remove(filepath.Join(opts.CacheDir, "families"))
	}
	return rep, nil
}
