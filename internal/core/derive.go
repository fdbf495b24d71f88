package core

import (
	"context"
	"fmt"

	"hmpt/internal/ibs"
	"hmpt/internal/shim"
	"hmpt/internal/trace"
	"hmpt/internal/workloads"
	"hmpt/internal/xrand"
)

// DeriveSnapshot transposes base — a capture from the same derivation
// family — into the snapshot the options describe, without executing
// the kernel. w must be a fresh instance of the same workload
// configuration the base was captured from: its declared phase schedule
// (workloads.IterationFamily) rewrites the deduplicated trace's
// multiplicities for an iteration-count change, its scale declaration
// (workloads.ScaleFamily) covers a scale change, and its seed
// declaration (workloads.SeedFamily) covers a seed change — the
// recorded Meta.Seed/Meta.EnvSeed are rewritten for the target seed
// and everything else carries over, because for a seed-invariant
// workload the RNG only ever filled data values. The allocation
// registry and simulated footprint always carry over unchanged — they
// are established in Setup, before the iteration loop, and never see
// Env.Scale.
//
// The result is byte-identical to a real Capture under the same
// options (the derivation equivalence tests pin this for every family
// workload): the trace rewrite is validated slot-by-slot against the
// base, and the embedded sample counts are recomputed through the same
// deterministic counting pass Capture runs. Any mismatch between the
// declared schedule and the base capture is a refusal (an error), never
// a silently divergent snapshot; callers fall back to executing the
// kernel.
func DeriveSnapshot(base *trace.Snapshot, w workloads.Workload, opts Options) (*trace.Snapshot, error) {
	return DeriveSnapshotContext(context.Background(), base, w, opts)
}

// DeriveSnapshotContext is DeriveSnapshot counting its work on ctx's
// ledger: one Derivation (plus a SeedDerivation across seeds), and one
// SamplePass when an iteration or seed change re-runs the count pass.
func DeriveSnapshotContext(ctx context.Context, base *trace.Snapshot, w workloads.Workload, opts Options) (*trace.Snapshot, error) {
	o := opts.withDefaults()
	led := LedgerFrom(ctx)
	if base == nil || base.Trace == nil || base.Registry == nil {
		return nil, fmt.Errorf("core: derive from incomplete snapshot")
	}
	m := base.Meta
	if m.Workload != w.Name() {
		return nil, fmt.Errorf("core: deriving %q from a snapshot of %q", w.Name(), m.Workload)
	}
	if m.Config != o.ConfigTag || m.Threads != o.Threads {
		return nil, fmt.Errorf("core: snapshot of %q (config=%q threads=%d) is outside the derivation family of config=%q threads=%d",
			m.Workload, m.Config, m.Threads, o.ConfigTag, o.Threads)
	}
	mPeriod, mBudget := m.SamplePeriod, m.SampleBudget
	if mPeriod <= 0 {
		mPeriod = ibs.DefaultPeriod
	}
	if mBudget <= 0 {
		mBudget = ibs.DefaultMaxSamples
	}
	if mPeriod != o.SamplePeriod || mBudget != o.SampleBudget {
		return nil, fmt.Errorf("core: snapshot of %q captured at sample period=%d budget=%d is outside the derivation family of period=%d budget=%d",
			m.Workload, mPeriod, mBudget, o.SamplePeriod, o.SampleBudget)
	}
	// The base must be internally consistent before anything is
	// transposed from it: its recorded env seed must be the one its own
	// top-level seed derives.
	if baseEnvSeed := xrand.New(m.Seed).Split(1).Uint64(); m.EnvSeed != baseEnvSeed {
		return nil, fmt.Errorf("core: snapshot of %q records env seed %#x, expected %#x (corrupted or cross-version snapshot)",
			m.Workload, m.EnvSeed, baseEnvSeed)
	}
	if base.Samples == nil {
		// A real capture at the target key would embed sample counts; a
		// base without them (hand-built, or a pre-embed artifact) cannot
		// yield a byte-identical result.
		return nil, fmt.Errorf("core: snapshot of %q has no embedded sample counts to derive from", m.Workload)
	}

	if m.Scale != o.Scale {
		sf, ok := w.(workloads.ScaleFamily)
		if !ok || !sf.ScaleInvariant() {
			return nil, fmt.Errorf("core: workload %q does not declare scale invariance (scale %g -> %g)",
				m.Workload, m.Scale, o.Scale)
		}
	}
	if m.Seed != o.Seed {
		sf, ok := w.(workloads.SeedFamily)
		if !ok || !sf.SeedInvariant() {
			return nil, fmt.Errorf("core: workload %q does not declare seed invariance (seed %d -> %d)",
				m.Workload, m.Seed, o.Seed)
		}
	}

	tr := base.Trace
	if m.Iterations != o.Iterations {
		fam, ok := w.(workloads.IterationFamily)
		if !ok {
			return nil, fmt.Errorf("core: workload %q does not declare an iteration schedule (iterations %d -> %d)",
				m.Workload, m.Iterations, o.Iterations)
		}
		from := fam.PhaseSchedule(effectiveIterations(fam, m.Iterations))
		to := fam.PhaseSchedule(effectiveIterations(fam, o.Iterations))
		var err error
		tr, err = trace.DeriveTrace(base.Trace, from, to)
		if err != nil {
			return nil, fmt.Errorf("core: deriving %q iterations %d -> %d: %w", m.Workload, m.Iterations, o.Iterations, err)
		}
	}

	samples := base.Samples
	if m.Iterations != o.Iterations || m.Seed != o.Seed {
		// Recompute the embedded counts exactly as Capture would: the
		// counting pass is deterministic in (trace, registry), so the
		// result matches a real capture's embed bit for bit — and it is
		// a real counting pass, so it tallies like one. A seed
		// transposition runs it too: the target capture would have, and
		// determinism in (trace, registry) is precisely why the counts
		// survive the seed change.
		al, err := shim.Restore(base.Registry)
		if err != nil {
			return nil, fmt.Errorf("core: restoring %q registry for derivation: %w", m.Workload, err)
		}
		led.Add(SamplePass)
		samples, err = o.sampler().Counts(tr, al)
		if err != nil {
			return nil, fmt.Errorf("core: counting samples for derived %q: %w", m.Workload, err)
		}
	}

	meta := m
	meta.Scale = o.Scale
	meta.Iterations = o.Iterations
	if m.Seed != o.Seed {
		meta.Seed = o.Seed
		meta.EnvSeed = xrand.New(o.Seed).Split(1).Uint64()
		led.Add(SeedDerivation)
	}
	led.Add(Derivation)
	return &trace.Snapshot{
		Meta:     meta,
		Registry: base.Registry,
		Trace:    tr,
		Samples:  samples,
	}, nil
}

// effectiveIterations resolves an Options.Iterations value (0 = the
// workload's default) to the count Run actually executes.
func effectiveIterations(f workloads.IterationFamily, opt int) int {
	if opt > 0 {
		return opt
	}
	return f.DefaultIterations()
}
