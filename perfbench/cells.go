package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"time"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/experiments"
	"hmpt/internal/trace"
)

// Seeds. Every cell seed is a function of the benchmark seed. Seeds
// that execute a kernel stay in 1..60, the range over which the fast
// Table I instances are known to verify; seeds that are only ever
// derived from a base capture (sweep and miss seeds) are far above it.

// kernelSeed maps the benchmark seed to the i-th seed in 1..60.
func kernelSeed(seed uint64, i int) uint64 { return 1 + (seed+uint64(13*i))%60 }

// sweepSeeds are the sharded sweep's 8 seed variants.
func sweepSeeds(seed uint64) []uint64 {
	out := make([]uint64, 8)
	for i := range out {
		out[i] = 1000 + (seed%100000)*8 + uint64(i)
	}
	return out
}

// tableISpec is Table I × {xeonmax, dual} × seeds.
func tableISpec(seeds []uint64) experiments.CampaignSpec {
	return experiments.CampaignSpec{
		Workloads: []string{"all"},
		Platforms: []string{"xeonmax", "dual"},
		Seeds:     seeds,
	}
}

// cellRef is one matrix cell in the engine's enumeration order.
type cellRef struct {
	w campaign.Workload
	p campaign.Platform
	v campaign.Variant
}

// cellsOf enumerates a matrix workload-major, then platform, then
// variant: the order of campaign.Result.Cells and of shard cell indices.
func cellsOf(m campaign.Matrix) []cellRef {
	var out []cellRef
	for _, w := range m.Workloads {
		for _, p := range m.Platforms {
			for _, v := range m.Variants {
				out = append(out, cellRef{w, p, v})
			}
		}
	}
	return out
}

// matrix is the one-cell matrix of c.
func (c cellRef) matrix() campaign.Matrix {
	return campaign.Matrix{
		Workloads: []campaign.Workload{c.w},
		Platforms: []campaign.Platform{c.p},
		Variants:  []campaign.Variant{c.v},
	}
}

// options resolves c's tuner options the way the engine does.
func (c cellRef) options() core.Options {
	o := c.w.Options
	o.Platform = c.p.Platform
	if c.v.Apply != nil {
		c.v.Apply(&o)
	}
	return o
}

func (c cellRef) String() string { return c.w.Name + "/" + c.p.Name + "/" + c.v.Name }

// digest is the SHA-256 of an analysis' canonical wire encoding.
type digest [sha256.Size]byte

func digestOf(an *core.Analysis) (digest, error) {
	raw, err := core.EncodeAnalysisRaw("", an)
	if err != nil {
		return digest{}, err
	}
	return sha256.Sum256(raw), nil
}

// resultDigests digests every cell of a campaign result, failing on
// the first cell error.
func resultDigests(res *campaign.Result) ([]digest, error) {
	out := make([]digest, len(res.Cells))
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Err != nil {
			return nil, fmt.Errorf("cell %s/%s/%s: %w", c.Workload, c.Platform, c.Variant, c.Err)
		}
		d, err := digestOf(c.Analysis)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// caches opens a snapshot and an analysis cache in the tree rooted at
// dir of the in-memory filesystem.
func caches(fsys *memFS, dir string) (*trace.SnapshotCache, *core.AnalysisCache, error) {
	snaps, err := trace.NewSnapshotCacheFS(filepath.Join(dir, "snap"), fsys)
	if err != nil {
		return nil, nil, err
	}
	ans, err := core.NewAnalysisCacheFS(filepath.Join(dir, "an"), fsys)
	if err != nil {
		return nil, nil, err
	}
	return snaps, ans, nil
}

// captureBases captures one base per Table I family at the workload's
// paper seed into a fresh tree, so later derivations find it through
// the family index.
func captureBases(ctx context.Context) (*memFS, error) {
	fsys := newMemFS()
	snaps, _, err := caches(fsys, "/")
	if err != nil {
		return nil, err
	}
	m, err := tableISpec(nil).Matrix()
	if err != nil {
		return nil, err
	}
	for _, w := range m.Workloads {
		snap, err := core.CaptureContext(ctx, w.Factory(), w.Options)
		if err != nil {
			return nil, err
		}
		if err := snaps.Store(core.SnapshotKeyFor(w.Name, w.Options), snap); err != nil {
			return nil, err
		}
	}
	return fsys, nil
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow start (page faults, heap growth) is not the
// figure.
const setupReps = 21

// timedSetups runs setup setupReps times, records every duration in
// the run's info line and returns the median in seconds. Each call gets
// its repetition index.
func timedSetups(rc *runCfg, setup func(rep int) error) (float64, error) {
	var secs []float64
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		if err := setup(r); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	rc.info["setup_s_each"] = append([]float64(nil), secs...)
	return median(secs), nil
}
