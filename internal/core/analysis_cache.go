package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync/atomic"

	"hmpt/internal/faultfs"
	"hmpt/internal/fsatomic"
	"hmpt/internal/memsim"
	"hmpt/internal/shim"
	"hmpt/internal/trace"
	"hmpt/internal/wire"
)

// AnalysisVersion is the analysis-cache codec version written by
// EncodeAnalysis and required by DecodeAnalysis. Bump it on any change
// to the wire format; cache keys include it, so old entries are simply
// never addressed again.
//
// v2 replaced the FNV-64a seal with CRC-32C and added element totals
// ahead of the group and config sections (see AppendAnalysis).
const AnalysisVersion = 2

// AnalysisKey identifies one fully-resolved analysis: everything its
// result is a deterministic function of. The capture identity
// (SnapshotID — workload, config, threads, scale, seed, sampler
// controls, sampler version, snapshot codec version and the build's
// kernel epoch) pins the reference run; PlatformFP pins the machine
// model; OptionsFP pins the tuner options that shape the result beyond
// the capture (runs, group budget, filter threshold); PartitionFP pins
// a GroupBy policy's effect on the capture's sites. SweepParallelism is
// deliberately absent: results are invariant to the worker count.
type AnalysisKey struct {
	Workload   string
	SnapshotID string
	PlatformFP string
	OptionsFP  uint64
	// Grouped records whether a GroupBy policy was in effect;
	// PartitionFP is the policy's effect hash (meaningful only when
	// Grouped). Keeping the flag separate avoids aliasing two policies
	// whose hashes differ only in a reserved bit.
	Grouped     bool
	PartitionFP uint64
}

// ID returns the content address of the key: a SHA-256 over the
// canonical key encoding plus the analysis codec version and the
// costing-engine version. Bumping either version, or anything feeding
// the component fingerprints, silently retires every cached analysis.
func (k AnalysisKey) ID() string {
	h := sha256.New()
	w := wire.NewHashWriter(h)
	w.U64(AnalysisVersion)
	w.U64(memsim.EngineVersion)
	w.Str(k.Workload)
	w.Str(k.SnapshotID)
	w.Str(k.PlatformFP)
	w.U64(k.OptionsFP)
	w.Bool(k.Grouped)
	w.U64(k.PartitionFP)
	return hex.EncodeToString(h.Sum(nil))
}

// AnalysisKeyFor returns the analysis-cache key of analysing the named
// workload under the options — the same defaulting rules Analyze
// applies.
//
// When opts.GroupBy is nil the key is a pure function of the options:
// the per-site pre-grouping is fully determined by the capture the
// SnapshotID already pins. A non-nil GroupBy is a function and cannot
// be hashed directly, so its *effect* is fingerprinted instead: the
// label-to-group mapping over the capture's allocation sites, which is
// exactly what the pipeline consumes. That needs the capture's sites
// (ReplayContext.Sites); passing nil sites with a non-nil GroupBy is an
// error rather than a silently unstable key.
func AnalysisKeyFor(workload string, opts Options, sites []shim.SiteGroup) (AnalysisKey, error) {
	return AnalysisKeyOf(workload, SnapshotKeyFor(workload, opts).ID(), opts, sites)
}

// AnalysisKeyOf is AnalysisKeyFor for a caller that already holds the
// capture's snapshot ID, SnapshotKeyFor(workload, opts).ID(): the
// campaign engine hashes it once per capture and keys every cell of the
// capture from it instead of hashing it again per cell.
func AnalysisKeyOf(workload, snapshotID string, opts Options, sites []shim.SiteGroup) (AnalysisKey, error) {
	o := opts.withDefaults()
	key := AnalysisKey{
		Workload:   workload,
		SnapshotID: snapshotID,
		PlatformFP: o.Platform.Fingerprint(),
	}
	h := fnv.New64a()
	w := wire.NewHashWriter(h)
	w.I64(int64(o.Runs))
	w.I64(int64(o.MaxGroups))
	w.I64(int64(o.FilterBelow))
	key.OptionsFP = h.Sum64()

	if o.GroupBy != nil {
		if sites == nil {
			return AnalysisKey{}, fmt.Errorf("core: fingerprinting a GroupBy policy needs the capture's sites (see ReplayContext.Sites)")
		}
		ph := fnv.New64a()
		pw := wire.NewHashWriter(ph)
		for _, sg := range sites {
			pw.Str(sg.Label)
			pw.Str(o.GroupBy(sg.Label))
		}
		key.Grouped = true
		key.PartitionFP = ph.Sum64()
	}
	return key, nil
}

// AnalysisCache is a content-addressed analysis store on disk — the
// third caching layer of the pipeline, sibling of trace.SnapshotCache:
// one file per AnalysisKey under the cache directory, named by the
// key's ID. Writes are atomic (temp file + rename), and Load verifies
// the codec checksum and the embedded key, so concurrent campaign
// workers and interrupted runs can never leave an entry a later Load
// would trust.
type AnalysisCache struct {
	dir string
	fs  faultfs.FS
	pub fsatomic.Publisher
	cnt cacheCounters
}

// CacheStats is a point-in-time counter snapshot of a cache rung's
// traffic; see trace.CacheStats.
type CacheStats = trace.CacheStats

// cacheCounters mirrors the snapshot cache's atomic stats counters.
type cacheCounters struct {
	hits, misses, errors, stores atomic.Int64
}

func (c *cacheCounters) stats() CacheStats {
	return CacheStats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Errors: c.errors.Load(),
		Stores: c.stores.Load(),
	}
}

// NewAnalysisCache opens (creating if needed) a cache rooted at dir on
// the real filesystem.
func NewAnalysisCache(dir string) (*AnalysisCache, error) {
	return NewAnalysisCacheFS(dir, nil)
}

// NewAnalysisCacheFS opens a cache whose filesystem operations all go
// through fs (nil = the real filesystem) — the fault-injection seam,
// mirroring trace.NewSnapshotCacheFS. Writes go through an
// fsatomic.Publisher with retry/degrade semantics; see Degraded.
func NewAnalysisCacheFS(dir string, fs faultfs.FS) (*AnalysisCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: empty analysis cache directory")
	}
	if fs == nil {
		fs = faultfs.OS
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating analysis cache: %w", err)
	}
	c := &AnalysisCache{dir: dir, fs: fs}
	c.pub.FS = fs
	return c, nil
}

// Dir returns the cache root directory.
func (c *AnalysisCache) Dir() string { return c.dir }

// Stats returns the cache's traffic counters since it was opened.
func (c *AnalysisCache) Stats() CacheStats { return c.cnt.stats() }

// Publisher returns the cache's write-path publisher so callers can
// tune its resilience policy and read its stats.
func (c *AnalysisCache) Publisher() *fsatomic.Publisher { return &c.pub }

// Degraded reports whether the rung's write path is in degraded
// (read-only) mode; reads and warm serving are unaffected.
func (c *AnalysisCache) Degraded() bool { return c.pub.Degraded() }

// Path returns the file path an entry for the key lives at.
func (c *AnalysisCache) Path(k AnalysisKey) string {
	return filepath.Join(c.dir, k.ID()+".anl")
}

// path returns the entry file for an already-computed key ID.
func (c *AnalysisCache) path(id string) string {
	return filepath.Join(c.dir, id+".anl")
}

// Load returns the cached analysis for the key, or ok=false on a miss.
// A present-but-invalid entry (truncated, corrupted, or addressing a
// different key) is reported as an error; callers typically treat it as
// a miss and overwrite it through Store.
func (c *AnalysisCache) Load(k AnalysisKey) (an *Analysis, ok bool, err error) {
	id := k.ID()
	raw, err := c.fs.ReadFile(c.path(id))
	if os.IsNotExist(err) {
		c.cnt.misses.Add(1)
		return nil, false, nil
	}
	if err != nil {
		c.cnt.errors.Add(1)
		return nil, false, fmt.Errorf("core: reading cached analysis: %w", err)
	}
	an, keyID, err := DecodeAnalysis(raw)
	if err != nil {
		c.cnt.errors.Add(1)
		return nil, false, fmt.Errorf("core: cached analysis %s: %w", id[:12], err)
	}
	if keyID != id {
		c.cnt.errors.Add(1)
		// Truncate defensively: the embedded ID is attacker/corruption
		// controlled and may be shorter than a real content address.
		if len(keyID) > 12 {
			keyID = keyID[:12]
		}
		return nil, false, fmt.Errorf("core: cached analysis %s embeds key %q (collision or renamed entry)",
			id[:12], keyID)
	}
	if an.Workload != k.Workload {
		c.cnt.errors.Add(1)
		return nil, false, fmt.Errorf("core: cached analysis %s holds workload %q, key wants %q",
			id[:12], an.Workload, k.Workload)
	}
	c.cnt.hits.Add(1)
	return an, true, nil
}

// Store writes the analysis under the key, atomically replacing any
// existing entry. Like the snapshot cache, the publish stages under a
// unique temp name and renames atomically, so engines in separate
// processes can share one cache directory without torn entries.
func (c *AnalysisCache) Store(k AnalysisKey, an *Analysis) error {
	id := k.ID()
	b, err := encodeAnalysis(id, an)
	if err != nil {
		c.cnt.errors.Add(1)
		return err
	}
	if err := c.pub.Publish(c.path(id), b); err != nil {
		c.cnt.errors.Add(1)
		return fmt.Errorf("core: publishing analysis: %w", err)
	}
	c.cnt.stores.Add(1)
	return nil
}
