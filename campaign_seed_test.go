// Seed-sweep campaign acceptance tests: an iteration × scale × seed
// sweep over the nine iterative (seed-invariant) workloads must execute
// exactly one kernel per derivation family — every other cell is a
// derivation — pinned by the process-wide kernel, derivation and
// seed-derivation counters. Seed-dependent workloads (chase, randsum)
// must instead fall back to one real capture per seed.
package hmpt

import (
	"fmt"
	"testing"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/experiments"
	"hmpt/internal/memsim"
	"hmpt/internal/workloads"
)

// iterativeWorkloads builds the campaign rows for the nine iterative
// workloads: the seven Table I benchmarks (reduced-size instances) plus
// the stream and synth microbenchmarks.
func iterativeWorkloads(t *testing.T) []campaign.Workload {
	t.Helper()
	var ws []campaign.Workload
	for _, spec := range experiments.Specs() {
		ws = append(ws, campaign.Workload{Name: spec.Name, Factory: spec.Fast, Options: spec.Options})
	}
	for _, name := range []string{"stream", "synth"} {
		name := name
		ws = append(ws, campaign.Workload{
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
	if len(ws) != 9 {
		t.Fatalf("expected the nine iterative workloads, got %d", len(ws))
	}
	return ws
}

// TestCampaignSeedSweepOneKernelPerFamily is the acceptance pin for
// seed-parametric derivation: a 2-iteration × 2-scale × 8-seed sweep
// (32 variants, 288 cells) over the nine iterative workloads executes
// exactly one kernel per family — nine kernels total — and derives
// every other capture, with the cross-seed subset tallied by the
// SeedDerivations counter.
func TestCampaignSeedSweepOneKernelPerFamily(t *testing.T) {
	t.Parallel()
	m := campaign.Matrix{
		Workloads: iterativeWorkloads(t),
		Platforms: []campaign.Platform{{Name: "xeonmax", Platform: memsim.XeonMax9468()}},
	}
	// Iteration counts sit above every workload's tuned default: the
	// family base is real-captured at whichever member hash-orders
	// first, and the solvers' convergence verification needs enough
	// iterations to contract at any (seed, scale) the matrix can pick.
	for _, iters := range []int{10, 20} {
		for _, scale := range []float64{1, 2} {
			for seed := uint64(1); seed <= 8; seed++ {
				iters, scale, seed := iters, scale, seed
				m.Variants = append(m.Variants, campaign.Variant{
					Name: fmt.Sprintf("i%d-s%g-seed%d", iters, scale, seed),
					Apply: func(o *core.Options) {
						o.Iterations = iters
						o.Scale = scale
						o.Seed = seed
					},
				})
			}
		}
	}
	cells := len(m.Workloads) * len(m.Variants)

	res, err := (&campaign.Engine{Flights: campaign.NewFlightGroup()}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != cells {
		t.Fatalf("campaign ran %d cells, want %d", len(res.Cells), cells)
	}

	families := len(m.Workloads)
	if got := res.Work.Kernels; got != int64(families) {
		t.Errorf("sweep executed %d kernels, want exactly one per family (%d)", got, families)
	}
	if res.Executions != families {
		t.Errorf("Result.Executions = %d, want %d", res.Executions, families)
	}
	wantDerived := cells - families
	if res.Derived != wantDerived {
		t.Errorf("Result.Derived = %d, want %d (every non-base cell derived)", res.Derived, wantDerived)
	}
	if got := res.Work.Derived; got != int64(wantDerived) {
		t.Errorf("DerivedSnapshots delta = %d, want %d", got, wantDerived)
	}
	// Whichever (iterations, scale, seed) member resolves first in a
	// family, its seed is shared by exactly 2×2 = 4 of that family's 32
	// variants, so 32-4 = 28 derivations per family cross seeds.
	wantSeedDerived := families * (len(m.Variants) - 4)
	if res.SeedDerived != wantSeedDerived {
		t.Errorf("Result.SeedDerived = %d, want %d", res.SeedDerived, wantSeedDerived)
	}
	if got := res.Work.SeedDerived; got != int64(wantSeedDerived) {
		t.Errorf("SeedDerivations delta = %d, want %d", got, wantSeedDerived)
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.SeedDerived && !c.Derived {
			t.Fatalf("cell %s/%s: SeedDerived without Derived", c.Workload, c.Variant)
		}
	}
}

// TestCampaignSeedSweepSeedDependentFallsBack pins the opt-out path: a
// seed sweep of chase and randsum (no SeedFamily declaration) executes
// one real kernel per seed — derivation refuses, nothing is silently
// transposed — and no seed derivations are tallied.
func TestCampaignSeedSweepSeedDependentFallsBack(t *testing.T) {
	t.Parallel()
	var ws []campaign.Workload
	for _, name := range []string{"chase", "randsum"} {
		name := name
		ws = append(ws, campaign.Workload{
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
	m := campaign.Matrix{
		Workloads: ws,
		Platforms: []campaign.Platform{{Name: "xeonmax", Platform: memsim.XeonMax9468()}},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		m.Variants = append(m.Variants, campaign.Variant{
			Name:  fmt.Sprintf("seed%d", seed),
			Apply: func(o *core.Options) { o.Seed = seed },
		})
	}

	res, err := (&campaign.Engine{Flights: campaign.NewFlightGroup()}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	wantKernels := len(ws) * 3
	if got := res.Work.Kernels; got != int64(wantKernels) {
		t.Errorf("seed-dependent sweep executed %d kernels, want one per seed (%d)", got, wantKernels)
	}
	if res.Executions != wantKernels || res.Derived != 0 || res.SeedDerived != 0 {
		t.Errorf("executions=%d derived=%d seedDerived=%d, want %d/0/0 (derivation must refuse)",
			res.Executions, res.Derived, res.SeedDerived, wantKernels)
	}
	if got := res.Work.SeedDerived; got != 0 {
		t.Errorf("SeedDerivations delta = %d, want 0", got)
	}
	for i := range res.Cells {
		if c := &res.Cells[i]; c.Derived || c.SeedDerived {
			t.Errorf("cell %s/%s marked derived — seed-dependent workloads must capture for real", c.Workload, c.Variant)
		}
	}
}
