package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync/atomic"

	"hmpt/internal/faultfs"
	"hmpt/internal/fsatomic"
	"hmpt/internal/wire"
)

// kernelEpoch ties snapshot content addresses to the build that captured
// them: a snapshot records a kernel's *output*, so a kernel code change
// must not resurrect captures of the old kernel. The VCS revision (plus
// dirty marker) of the running binary participates in every key hash;
// rebuilding from a new commit simply addresses a fresh set of entries.
// Builds without VCS stamping (go test, dev trees) share the "dev"
// epoch — fine for per-run temp caches, but a long-lived shared cache
// should be populated by a stamped `go build`.
var kernelEpoch = func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
		if rev != "" {
			return rev + ":" + dirty
		}
	}
	return "dev"
}()

// SnapshotKey identifies one capturable reference run: the inputs that
// determine the kernel's trace and allocation registry. The platform is
// deliberately absent — capture is platform-independent (the kernel runs
// before any costing), so one snapshot serves every platform preset and
// tuner-option variant of a campaign.
type SnapshotKey struct {
	Workload string
	// Config tags the workload instance configuration; see Meta.Config.
	Config  string
	Threads int
	Scale   float64
	Seed    uint64
	// SamplePeriod and SampleBudget are the sampler controls the
	// capture's embedded sample counts were produced under, and
	// SamplerVersion the sampling-engine discipline that produced them
	// (see Snapshot.Samples). A non-default period or budget addresses
	// a different entry; a sampler-discipline change retires every
	// embedded count the same way a codec bump retires every snapshot.
	SamplePeriod   int64
	SampleBudget   int64
	SamplerVersion uint32
	// Iterations is the iteration-count override the kernel ran under
	// (0 = workload default) — a capture input like Seed: a different
	// timestep count records a different trace.
	Iterations int
}

// ID returns the content address of the key: a SHA-256 over the
// canonical key encoding, the codec version, and the kernel epoch of
// this build. Bumping SnapshotVersion or rebuilding from a different
// commit therefore invalidates every cached snapshot without any
// migration logic — stale entries are simply never addressed again.
func (k SnapshotKey) ID() string {
	h := sha256.New()
	w := wire.NewHashWriter(h)
	w.U64(SnapshotVersion)
	w.Str(kernelEpoch)
	w.Str(k.Workload)
	w.Str(k.Config)
	w.I64(int64(k.Threads))
	w.F64(k.Scale)
	w.U64(k.Seed)
	w.I64(k.SamplePeriod)
	w.I64(k.SampleBudget)
	w.U64(uint64(k.SamplerVersion))
	w.I64(int64(k.Iterations))
	return hex.EncodeToString(h.Sum(nil))
}

// Matches reports whether a snapshot's metadata corresponds to the key.
// The sampler version is not part of Meta — it is recorded with the
// embedded counts themselves and validated by the replaying sampler —
// so it participates in the content address only.
func (k SnapshotKey) Matches(m Meta) bool {
	return m.Workload == k.Workload && m.Config == k.Config &&
		m.Threads == k.Threads && m.Scale == k.Scale && m.Seed == k.Seed &&
		m.SamplePeriod == k.SamplePeriod && int64(m.SampleBudget) == k.SampleBudget &&
		m.Iterations == k.Iterations
}

// CacheStats is a point-in-time counter snapshot of one cache rung's
// traffic, surfaced through the serving layer's /metrics endpoint.
// Hits + Misses + Errors is the total Load count; Errors are
// present-but-unreadable entries (treated as misses by callers) plus
// failed Stores.
type CacheStats struct {
	Hits   int64
	Misses int64
	Errors int64
	Stores int64
}

// cacheCounters is the shared atomic implementation behind each cache
// rung's Stats.
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

// SnapshotCache is a snapshot store on disk: one file per SnapshotKey,
// at <dir>/snapshots/<familyID>/<member name> (see Path), so the family
// directory doubles as the derivation-family index.
// Writes are atomic (temp file + rename), so concurrent campaign workers
// and interrupted runs can never leave a partially written entry that a
// later Load would trust — and Load verifies the codec checksum and the
// key metadata anyway.
type SnapshotCache struct {
	dir string
	fs  faultfs.FS
	pub fsatomic.Publisher
	cnt cacheCounters
}

// NewSnapshotCache opens (creating if needed) a cache rooted at dir on
// the real filesystem.
func NewSnapshotCache(dir string) (*SnapshotCache, error) {
	return NewSnapshotCacheFS(dir, nil)
}

// NewSnapshotCacheFS opens a cache whose filesystem operations all go
// through fs (nil = the real filesystem) — the seam the fault-injection
// layer plugs into. Writes go through an fsatomic.Publisher, so
// transient publish faults are retried and persistent ones demote the
// rung to degraded (read-only / compute-through) mode; see Degraded.
func NewSnapshotCacheFS(dir string, fs faultfs.FS) (*SnapshotCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("trace: empty snapshot cache directory")
	}
	if fs == nil {
		fs = faultfs.OS
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: creating snapshot cache: %w", err)
	}
	c := &SnapshotCache{dir: dir, fs: fs}
	c.pub.FS = fs
	return c, nil
}

// Dir returns the cache root directory.
func (c *SnapshotCache) Dir() string { return c.dir }

// Stats returns the cache's traffic counters since it was opened.
func (c *SnapshotCache) Stats() CacheStats { return c.cnt.stats() }

// Publisher returns the cache's write-path publisher so callers can
// tune its resilience policy (retry budget, re-probe interval) and read
// its stats.
func (c *SnapshotCache) Publisher() *fsatomic.Publisher { return &c.pub }

// Degraded reports whether the rung's write path is in degraded
// (read-only) mode after persistent publish failures. Reads — and
// therefore warm serving — are unaffected.
func (c *SnapshotCache) Degraded() bool { return c.pub.Degraded() }

// Path returns the file path an entry for the key lives at: its family
// directory, under a name spelling the key's iterations, scale and seed.
func (c *SnapshotCache) Path(k SnapshotKey) string {
	return filepath.Join(c.familyDir(k.Family()), memberName(k.Iterations, k.Scale, k.Seed))
}

// Load returns the cached snapshot for the key, or ok=false on a miss.
// A present-but-invalid entry (truncated, corrupted, or colliding
// metadata) is reported as an error; callers typically treat it as a
// miss and overwrite it through Store.
func (c *SnapshotCache) Load(k SnapshotKey) (snap *Snapshot, ok bool, err error) {
	raw, err := c.fs.ReadFile(c.Path(k))
	if os.IsNotExist(err) {
		c.cnt.misses.Add(1)
		return nil, false, nil
	}
	if err != nil {
		c.cnt.errors.Add(1)
		return nil, false, fmt.Errorf("trace: reading cached snapshot: %w", err)
	}
	s, err := DecodeSnapshotBytes(raw)
	if err != nil {
		c.cnt.errors.Add(1)
		return nil, false, fmt.Errorf("trace: cached snapshot %s: %w", k.ID()[:12], err)
	}
	if !k.Matches(s.Meta) {
		c.cnt.errors.Add(1)
		// Every field Matches compares, on both sides.
		const f = "%q/%q/threads=%d/scale=%g/seed=%d/period=%d/budget=%d/iters=%d"
		m := s.Meta
		return nil, false, fmt.Errorf("trace: cached snapshot %s holds "+f+", key wants "+f, k.ID()[:12],
			m.Workload, m.Config, m.Threads, m.Scale, m.Seed, m.SamplePeriod, m.SampleBudget, m.Iterations,
			k.Workload, k.Config, k.Threads, k.Scale, k.Seed, k.SamplePeriod, k.SampleBudget, k.Iterations)
	}
	c.cnt.hits.Add(1)
	return s, true, nil
}

// Store writes the snapshot under the key, atomically replacing any
// existing entry. Its path lies in the key's family directory, so the
// one publish also makes the entry a derivation base for later lookups
// of sibling keys (same family, different iterations, scale or seed);
// the publisher creates the family directory when it is missing. The
// publish is safe against concurrent writers in other processes: every
// writer stages under a unique temp name and the final rename is
// atomic, so readers only ever observe complete entries (never a torn
// interleaving of two campaigns' stores).
func (c *SnapshotCache) Store(k SnapshotKey, s *Snapshot) error {
	if !k.Matches(s.Meta) {
		c.cnt.errors.Add(1)
		return fmt.Errorf("trace: snapshot meta %+v does not match cache key %+v", s.Meta, k)
	}
	b, err := s.EncodeBytes()
	if err != nil {
		c.cnt.errors.Add(1)
		return err
	}
	if err := c.pub.Publish(c.Path(k), b); err != nil {
		c.cnt.errors.Add(1)
		return fmt.Errorf("trace: publishing snapshot: %w", err)
	}
	c.cnt.stores.Add(1)
	return nil
}
