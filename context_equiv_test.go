// Shared-replay-context equivalence tests: analyses replayed through
// one shared core.ReplayContext — the registry restored once, sweep
// evaluators compiled once, the sampling report reconstructed once per
// platform — must be byte-identical to live analyses and to per-replay
// NewReplay analyses, for every registered workload, across platform
// presets and option variants, and under concurrent use of one context.
package hmpt

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"hmpt/internal/core"
	"hmpt/internal/memsim"
)

// ledgerContext returns a context carrying a fresh ledger, and the
// ledger.
func ledgerContext() (context.Context, *core.Ledger) {
	l := core.NewLedger(nil)
	return core.WithLedger(context.Background(), l), l
}

// TestContextReplayMatchesLive: one context per capture, many cells.
func TestContextReplayMatchesLive(t *testing.T) {
	t.Parallel()
	for _, c := range equivCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			snap, err := core.Capture(c.factory(), c.opts)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			ctx, err := core.NewContext(snap)
			if err != nil {
				t.Fatalf("context: %v", err)
			}

			// Cell variants sharing the context: base options, a higher
			// run count, and a different platform preset.
			variants := []core.Options{c.opts}
			runs9 := c.opts
			runs9.Runs = 9
			variants = append(variants, runs9)
			dual := c.opts
			dual.Platform = memsim.DualXeonMax9468()
			variants = append(variants, dual)

			for vi, opts := range variants {
				live, err := core.New(c.factory(), opts).Analyze()
				if err != nil {
					t.Fatalf("variant %d live: %v", vi, err)
				}
				lctx, led := ledgerContext()
				shared, err := core.NewContextReplay(ctx, opts).AnalyzeContext(lctx)
				if err != nil {
					t.Fatalf("variant %d context replay: %v", vi, err)
				}
				if got := led.Work().Kernels; got != 0 {
					t.Errorf("variant %d: context replay executed %d kernels, want 0", vi, got)
				}
				if !reflect.DeepEqual(live, shared) {
					t.Errorf("variant %d: context replay differs from live analysis", vi)
				}
				perReplay, err := core.NewReplay(snap, opts).Analyze()
				if err != nil {
					t.Fatalf("variant %d replay: %v", vi, err)
				}
				if !reflect.DeepEqual(perReplay, shared) {
					t.Errorf("variant %d: context replay differs from per-replay analysis", vi)
				}
			}
		})
	}
}

// TestContextReplayConcurrent: many goroutines replaying one shared
// context concurrently (mixed platforms, mixed sweep parallelism) all
// produce the byte-identical analysis — the read-only contract of the
// context and the clone contract of its memoised evaluators, under the
// race detector in CI.
func TestContextReplayConcurrent(t *testing.T) {
	c := equivCases(t)[0]
	snap, err := core.Capture(c.factory(), c.opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := core.NewContext(snap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewContextReplay(ctx, c.opts).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	wantDual := c.opts
	wantDual.Platform = memsim.DualXeonMax9468()
	wantDualAn, err := core.NewContextReplay(ctx, wantDual).Analyze()
	if err != nil {
		t.Fatal(err)
	}

	const replays = 8
	got := make([]*core.Analysis, replays)
	errs := make([]error, replays)
	var wg sync.WaitGroup
	for i := 0; i < replays; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := c.opts
			if i%2 == 1 {
				opts.Platform = memsim.DualXeonMax9468()
			}
			opts.SweepParallelism = 1 + i%3
			got[i], errs[i] = core.NewContextReplay(ctx, opts).Analyze()
		}()
	}
	wg.Wait()
	for i := 0; i < replays; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent replay %d: %v", i, errs[i])
		}
		expect := want
		if i%2 == 1 {
			expect = wantDualAn
		}
		if !reflect.DeepEqual(expect, got[i]) {
			t.Errorf("concurrent replay %d differs from the serial analysis", i)
		}
	}
}

// TestContextSharesCountValidation pins the platform-independent half
// of report reconstruction: one shared context validates its embedded
// sample counts exactly once (core.CountWalk), no matter how many
// platforms reconstruct sampling reports from it — only the per-platform
// latency half is re-derived.
func TestContextSharesCountValidation(t *testing.T) {
	t.Parallel()
	c := equivCases(t)[0]
	snap, err := core.Capture(c.factory(), c.opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := core.NewContext(snap)
	if err != nil {
		t.Fatal(err)
	}
	lctx, led := ledgerContext()
	for _, platform := range []*memsim.Platform{memsim.XeonMax9468(), memsim.DualXeonMax9468()} {
		opts := c.opts
		opts.Platform = platform
		if _, err := core.NewContextReplay(ctx, opts).AnalyzeContext(lctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := led.Work().CountWalks; got != 1 {
		t.Errorf("two platforms ran %d count-validation walks, want 1 (shared table)", got)
	}
	// Per-replay reconstruction (no context) validates per call — the
	// baseline the sharing is measured against.
	lctx, led = ledgerContext()
	for _, platform := range []*memsim.Platform{memsim.XeonMax9468(), memsim.DualXeonMax9468()} {
		opts := c.opts
		opts.Platform = platform
		if _, err := core.NewReplay(snap, opts).AnalyzeContext(lctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := led.Work().CountWalks; got != 2 {
		t.Errorf("two per-replay analyses ran %d count walks, want 2", got)
	}
}
