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

// Capture executes the workload's kernel once — exactly as the reference
// stage of Analyze would — and returns the run as a snapshot: the phase
// trace, the shim allocation registry, and the capture inputs. An
// analysis replaying the snapshot (Options.Snapshot or NewReplay) is
// byte-identical to one executing the kernel itself.
//
// Only the options that feed kernel execution or the embedded sample
// counts matter to a capture: Threads, Scale, Seed, and the sampler
// controls. The platform does not — capture happens before any costing,
// and the embedded counts are platform-independent — so one snapshot
// serves every platform preset and tuner-option variant.
func Capture(w workloads.Workload, opts Options) (*trace.Snapshot, error) {
	return CaptureContext(context.Background(), w, opts)
}

// CaptureContext is Capture with cooperative cancellation: ctx is polled
// before the kernel executes and before the embedded-count pass, so a
// cancelled campaign skips captures it has not started. The kernel run
// itself is never interrupted — a capture either completes whole (and is
// byte-identical to an uncancelled one) or returns ctx.Err().
func CaptureContext(ctx context.Context, w workloads.Workload, opts Options) (*trace.Snapshot, error) {
	o := opts.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	envSeed := xrand.New(o.Seed).Split(1).Uint64()
	env, tr, err := executeReference(ctx, w, o.Threads, o.Scale, o.Iterations, envSeed)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Embed the sampling counts so replays skip the sampling pass: the
	// count pass is the one sampling walk this capture pays for.
	LedgerFrom(ctx).Add(SamplePass)
	counts, err := o.sampler().Counts(tr, env.Alloc)
	if err != nil {
		return nil, fmt.Errorf("core: counting samples for %s: %w", w.Name(), err)
	}
	return &trace.Snapshot{
		Meta: trace.Meta{
			Workload:     w.Name(),
			Config:       o.ConfigTag,
			Threads:      o.Threads,
			Scale:        o.Scale,
			Seed:         o.Seed,
			EnvSeed:      envSeed,
			SimBytes:     env.Alloc.TotalSimBytes(),
			SamplePeriod: o.SamplePeriod,
			SampleBudget: o.SampleBudget,
			Iterations:   o.Iterations,
		},
		Registry: env.Alloc.Export(),
		Trace:    tr,
		Samples:  counts,
	}, nil
}

// SnapshotKeyFor returns the snapshot-cache key of a capture with these
// options — the same defaulting rules Capture and Analyze apply. The
// sampler controls and the sampling-engine version participate: a
// non-default period or budget embeds different sample counts and so
// addresses a different capture.
func SnapshotKeyFor(workload string, opts Options) trace.SnapshotKey {
	o := opts.withDefaults()
	return trace.SnapshotKey{
		Workload: workload, Config: o.ConfigTag, Threads: o.Threads, Scale: o.Scale, Seed: o.Seed,
		SamplePeriod: o.SamplePeriod, SampleBudget: int64(o.SampleBudget), SamplerVersion: ibs.SamplerVersion,
		Iterations: o.Iterations,
	}
}

// NewReplay returns a tuner that analyses the snapshot without any
// workload instance: the kernel is never executed. The options must
// agree with the snapshot's capture inputs (zero-valued Threads, Scale
// and Seed are filled in from the snapshot).
func NewReplay(snap *trace.Snapshot, opts Options) *Tuner {
	if opts.Seed == 0 {
		opts.Seed = snap.Meta.Seed
	}
	if opts.Threads == 0 {
		opts.Threads = snap.Meta.Threads
	}
	if opts.Scale <= 0 {
		opts.Scale = snap.Meta.Scale
	}
	if opts.ConfigTag == "" {
		opts.ConfigTag = snap.Meta.Config
	}
	if opts.SamplePeriod <= 0 {
		opts.SamplePeriod = snap.Meta.SamplePeriod
	}
	if opts.SampleBudget <= 0 {
		opts.SampleBudget = snap.Meta.SampleBudget
	}
	if opts.Iterations == 0 {
		opts.Iterations = snap.Meta.Iterations
	}
	opts.Snapshot = snap
	return &Tuner{opts: opts.withDefaults(), name: snap.Meta.Workload}
}

// NewContextReplay returns a tuner that analyses the context's capture
// through the shared replay environment: the registry, trace, sampling
// report and compiled evaluators come from the context instead of being
// re-derived per replay. NewReplay runs the same path through a private
// context, so the analysis is byte-identical to NewReplay of the same
// snapshot and options, and the snapshot-validation rules are identical
// too.
func NewContextReplay(ctx *ReplayContext, opts Options) *Tuner {
	t := NewReplay(ctx.snap, opts)
	t.ctx = ctx
	return t
}

// executeReference runs the kernel once in a fresh environment — the one
// place in the pipeline real execution happens — and canonicalises the
// recorded trace: each distinct phase shape once, total multiplicity in
// Repeat (trace.Canonical). Canonicalisation happens here, before the
// trace enters any downstream stage or snapshot, so live analyses,
// captures and replays all consume the identical compact trace and the
// whole pipeline is O(unique phases) in the kernel's iteration count.
// The execution is counted on ctx's ledger.
func executeReference(ctx context.Context, w workloads.Workload, threads int, scale float64, iters int, envSeed uint64) (*workloads.Env, *trace.Trace, error) {
	LedgerFrom(ctx).Add(Kernel)
	env := workloads.NewEnv(threads, scale, envSeed)
	env.Iterations = iters
	if err := w.Setup(env); err != nil {
		return nil, nil, fmt.Errorf("core: setup %s: %w", w.Name(), err)
	}
	if err := w.Run(env); err != nil {
		return nil, nil, fmt.Errorf("core: run %s: %w", w.Name(), err)
	}
	if err := w.Verify(); err != nil {
		return nil, nil, fmt.Errorf("core: verify %s: %w", w.Name(), err)
	}
	return env, env.Rec.Trace().Canonical(), nil
}

// reference produces the reference run's allocation registry and phase
// trace: restored from the injected snapshot when one is present,
// executed live otherwise. envSeed is the seed the caller derived for
// the workload environment; a snapshot whose recorded seed disagrees was
// captured under different options and is rejected rather than silently
// producing a divergent analysis.
func (t *Tuner) reference(ctx context.Context, envSeed uint64) (*shim.Allocator, *trace.Trace, error) {
	snap := t.opts.Snapshot
	if snap == nil {
		if t.w == nil {
			return nil, nil, fmt.Errorf("core: tuner for %s has neither workload nor snapshot", t.name)
		}
		env, tr, err := executeReference(ctx, t.w, t.opts.Threads, t.opts.Scale, t.opts.Iterations, envSeed)
		if err != nil {
			return nil, nil, err
		}
		return env.Alloc, tr, nil
	}
	m := snap.Meta
	if m.Workload != t.name {
		return nil, nil, fmt.Errorf("core: snapshot of %q injected into tuner for %q", m.Workload, t.name)
	}
	o := t.opts
	if m.Config != o.ConfigTag || m.Threads != o.Threads || m.Scale != o.Scale || m.Seed != o.Seed {
		return nil, nil, fmt.Errorf("core: snapshot of %q captured at config=%q threads=%d scale=%g seed=%d, options want config=%q threads=%d scale=%g seed=%d",
			m.Workload, m.Config, m.Threads, m.Scale, m.Seed, o.ConfigTag, o.Threads, o.Scale, o.Seed)
	}
	// Zero-valued sampler controls in the metadata mean "defaults" —
	// hand-built snapshots (and their nil-Samples live-sampling
	// fallback) naturally leave them unset — so normalise before the
	// comparison, the same way withDefaults normalised the options.
	mPeriod, mBudget := m.SamplePeriod, m.SampleBudget
	if mPeriod <= 0 {
		mPeriod = ibs.DefaultPeriod
	}
	if mBudget <= 0 {
		mBudget = ibs.DefaultMaxSamples
	}
	if mPeriod != o.SamplePeriod || mBudget != o.SampleBudget {
		return nil, nil, fmt.Errorf("core: snapshot of %q captured at sample period=%d budget=%d, options want period=%d budget=%d",
			m.Workload, mPeriod, mBudget, o.SamplePeriod, o.SampleBudget)
	}
	if m.Iterations != o.Iterations {
		return nil, nil, fmt.Errorf("core: snapshot of %q captured at iterations=%d, options want iterations=%d",
			m.Workload, m.Iterations, o.Iterations)
	}
	if m.EnvSeed != envSeed {
		return nil, nil, fmt.Errorf("core: snapshot of %q records env seed %#x, expected %#x (corrupted or cross-version snapshot)",
			m.Workload, m.EnvSeed, envSeed)
	}
	// Every replay runs through a ReplayContext: the shared one of
	// NewContextReplay, or a private one built here on first use. Either
	// way the registry is restored and the trace copied once.
	if t.ctx == nil {
		c, err := NewContext(snap)
		if err != nil {
			return nil, nil, err
		}
		t.ctx = c
	}
	return t.ctx.al, t.ctx.tr, nil
}
