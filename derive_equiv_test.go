// Derivation equivalence tests: the fourth rung of the cache ladder
// must be an oracle, not an approximation. For every registered family
// workload, a snapshot derived from a capture at one iteration count
// must be byte-identical to a real capture at the target count — same
// wire encoding, same content address — in both directions, including
// the Iterations=0 (workload default) spelling of the base key. Scale
// transposition must likewise match a real capture at the target
// scale, and seed transposition (workloads.SeedFamily) a real capture
// at the target seed, both directions again. Workloads that cannot
// support derivation are opt-outs documented in the skip list below;
// an undocumented workload fails the test, so new benchmarks must
// either join a family or explain themselves here.
package hmpt

import (
	"bytes"
	"testing"

	"hmpt/internal/core"
	"hmpt/internal/workloads"
)

// deriveSkipList documents every registered workload that opts out of
// snapshot derivation, and why. A workload appearing here while
// declaring a family interface — or declaring neither family interface
// without appearing here — is a test failure, so the list cannot rot.
var deriveSkipList = map[string]string{
	"chase": "emits a single pointer-chase phase outside any iteration loop, so there is no iteration " +
		"family to transpose across; and its Sattolo-cycle permutation is drawn from the RNG, so the " +
		"realized access pattern is the seed — no seed family either",
	"randsum": "same single-phase shape as chase (one indirect-sum phase, no iteration loop); " +
		"its random gather indices are drawn from the RNG, so like chase it is seed-dependent by design",
}

// TestDeriveMatchesCapture pins the derivation oracle for iteration
// changes: for every family workload, Capture(I0) transposed to I1 is
// byte-identical to Capture(I1), and transposing back — through the
// Iterations=0 default spelling when the base options use it — is
// byte-identical to the original capture.
func TestDeriveMatchesCapture(t *testing.T) {
	t.Parallel()
	for _, c := range equivCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w := c.factory()
			fam, ok := w.(workloads.IterationFamily)
			if !ok {
				reason, listed := deriveSkipList[c.name]
				if !listed {
					t.Fatalf("workload %q declares no iteration schedule and is not on the documented skip list", c.name)
				}
				t.Skipf("derivation opt-out: %s", reason)
			}
			if _, listed := deriveSkipList[c.name]; listed {
				t.Fatalf("workload %q is on the derivation skip list but declares an iteration schedule", c.name)
			}

			base, err := core.Capture(c.factory(), c.opts)
			if err != nil {
				t.Fatalf("base capture: %v", err)
			}
			baseBytes, err := base.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}

			// Doubling the effective count exercises every slot of the
			// schedule (periodic phases like UA's adapt included) while
			// staying a genuinely different key.
			eff := c.opts.Iterations
			if eff <= 0 {
				eff = fam.DefaultIterations()
			}
			target := c.opts
			target.Iterations = 2 * eff

			lctx, led := ledgerContext()
			derived, err := core.DeriveSnapshotContext(lctx, base, c.factory(), target)
			if err != nil {
				t.Fatalf("derive %d -> %d: %v", c.opts.Iterations, target.Iterations, err)
			}
			if got := led.Work().Derived; got != 1 {
				t.Errorf("derivation tallied %d DerivedSnapshots ticks, want 1", got)
			}
			real, err := core.Capture(c.factory(), target)
			if err != nil {
				t.Fatalf("capture at target: %v", err)
			}
			realBytes, err := real.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			derivedBytes, err := derived.EncodeBytes()
			if err != nil {
				t.Fatalf("encoding derived snapshot: %v", err)
			}
			if !bytes.Equal(derivedBytes, realBytes) {
				t.Errorf("derived snapshot differs from real capture at iterations=%d (%d vs %d bytes)",
					target.Iterations, len(derivedBytes), len(realBytes))
			}
			if got, want := core.SnapshotKeyFor(c.name, target).ID(), core.SnapshotKeyFor(c.name, c.opts).ID(); got == want {
				t.Fatalf("target key %s collides with base key — the derivation test is vacuous", got)
			}

			// Round-trip: the derived capture is as good a base as a real
			// one, and deriving back to the original options — including
			// the Iterations=0 default spelling — reproduces the base
			// capture bit for bit.
			back, err := core.DeriveSnapshot(derived, c.factory(), c.opts)
			if err != nil {
				t.Fatalf("derive back %d -> %d: %v", target.Iterations, c.opts.Iterations, err)
			}
			backBytes, err := back.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(backBytes, baseBytes) {
				t.Errorf("round-tripped snapshot differs from the original base capture (%d vs %d bytes)",
					len(backBytes), len(baseBytes))
			}
		})
	}
}

// TestDeriveScaleMatchesCapture pins the derivation oracle for scale
// changes: every family workload draws its simulated footprint from its
// own Config, never Env.Scale, so a scale transposition is a metadata
// rewrite that must match a real capture at the target scale exactly.
func TestDeriveScaleMatchesCapture(t *testing.T) {
	for _, c := range equivCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w := c.factory()
			sf, ok := w.(workloads.ScaleFamily)
			if !ok || !sf.ScaleInvariant() {
				reason, listed := deriveSkipList[c.name]
				if !listed {
					t.Fatalf("workload %q declares no scale family and is not on the documented skip list", c.name)
				}
				t.Skipf("derivation opt-out: %s", reason)
			}

			base, err := core.Capture(c.factory(), c.opts)
			if err != nil {
				t.Fatalf("base capture: %v", err)
			}
			target := c.opts
			target.Scale = 2
			if c.opts.Scale == 2 {
				target.Scale = 3
			}
			derived, err := core.DeriveSnapshot(base, c.factory(), target)
			if err != nil {
				t.Fatalf("derive scale %g -> %g: %v", c.opts.Scale, target.Scale, err)
			}
			real, err := core.Capture(c.factory(), target)
			if err != nil {
				t.Fatalf("capture at target scale: %v", err)
			}
			realBytes, err := real.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			derivedBytes, err := derived.EncodeBytes()
			if err != nil {
				t.Fatalf("encoding derived snapshot: %v", err)
			}
			if !bytes.Equal(derivedBytes, realBytes) {
				t.Errorf("scale-derived snapshot differs from real capture at scale=%g (%d vs %d bytes)",
					target.Scale, len(derivedBytes), len(realBytes))
			}
		})
	}
}

// TestDeriveRefusals pins the refusal contract: any mismatch between
// the requested key and the base's derivation family is an error, never
// a silently divergent snapshot.
func TestDeriveRefusals(t *testing.T) {
	w, err := workloads.New("stream")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Seed: 1}
	base, err := core.Capture(w, opts)
	if err != nil {
		t.Fatal(err)
	}

	refuse := func(name string, mutate func(*core.Options), mw workloads.Workload) {
		t.Helper()
		o := opts
		mutate(&o)
		if mw == nil {
			mw, _ = workloads.New("stream")
		}
		if _, err := core.DeriveSnapshot(base, mw, o); err == nil {
			t.Errorf("%s: derivation accepted a key outside the base's family", name)
		}
	}
	refuse("threads change", func(o *core.Options) { o.Threads = 3; o.Iterations = 5 }, nil)
	refuse("sample-period change", func(o *core.Options) { o.SamplePeriod = 1024; o.Iterations = 5 }, nil)
	refuse("sample-budget change", func(o *core.Options) { o.SampleBudget = 99; o.Iterations = 5 }, nil)
	chase, err := workloads.New("chase")
	if err != nil {
		t.Fatal(err)
	}
	refuse("cross-workload", func(o *core.Options) { o.Iterations = 5 }, chase)

	// Seed changes are derivable for SeedFamily workloads (stream above
	// accepts them — see TestDeriveSeedMatchesCapture), but a workload
	// whose access pattern is drawn from the RNG must refuse: its
	// realized permutation *is* the seed.
	for _, name := range []string{"chase", "randsum"} {
		w, err := workloads.New(name)
		if err != nil {
			t.Fatal(err)
		}
		seedBase, err := core.Capture(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		mw, _ := workloads.New(name)
		o := opts
		o.Seed = 2
		if _, err := core.DeriveSnapshot(seedBase, mw, o); err == nil {
			t.Errorf("%s: seed derivation accepted for a seed-dependent workload", name)
		}
	}
}

// TestDeriveSeedMatchesCapture pins the derivation oracle for seed
// changes: for every seed-invariant workload, Capture(S0) transposed to
// S1 is byte-identical to Capture(S1) — the RNG only ever filled data
// values, so only Meta.Seed/Meta.EnvSeed differ — and transposing back
// reproduces the original capture bit for bit.
func TestDeriveSeedMatchesCapture(t *testing.T) {
	t.Parallel()
	for _, c := range equivCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w := c.factory()
			sf, ok := w.(workloads.SeedFamily)
			if !ok || !sf.SeedInvariant() {
				reason, listed := deriveSkipList[c.name]
				if !listed {
					t.Fatalf("workload %q declares no seed family and is not on the documented skip list", c.name)
				}
				t.Skipf("derivation opt-out: %s", reason)
			}
			if _, listed := deriveSkipList[c.name]; listed {
				t.Fatalf("workload %q is on the derivation skip list but declares a seed family", c.name)
			}

			base, err := core.Capture(c.factory(), c.opts)
			if err != nil {
				t.Fatalf("base capture: %v", err)
			}
			baseBytes, err := base.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}

			effSeed := c.opts.Seed
			if effSeed == 0 {
				effSeed = 1 // the withDefaults canonical seed
			}
			target := c.opts
			target.Seed = effSeed + 1

			lctx, led := ledgerContext()
			derived, err := core.DeriveSnapshotContext(lctx, base, c.factory(), target)
			if err != nil {
				t.Fatalf("derive seed %d -> %d: %v", effSeed, target.Seed, err)
			}
			if got := led.Work().Derived; got != 1 {
				t.Errorf("seed derivation tallied %d DerivedSnapshots ticks, want 1", got)
			}
			if got := led.Work().SeedDerived; got != 1 {
				t.Errorf("seed derivation tallied %d SeedDerivations ticks, want 1", got)
			}
			real, err := core.Capture(c.factory(), target)
			if err != nil {
				t.Fatalf("capture at target seed: %v", err)
			}
			realBytes, err := real.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			derivedBytes, err := derived.EncodeBytes()
			if err != nil {
				t.Fatalf("encoding derived snapshot: %v", err)
			}
			if !bytes.Equal(derivedBytes, realBytes) {
				t.Errorf("seed-derived snapshot differs from real capture at seed=%d (%d vs %d bytes)",
					target.Seed, len(derivedBytes), len(realBytes))
			}
			if got, want := core.SnapshotKeyFor(c.name, target).ID(), core.SnapshotKeyFor(c.name, c.opts).ID(); got == want {
				t.Fatalf("target key %s collides with base key — the derivation test is vacuous", got)
			}

			// Reverse direction: the seed-derived capture is as good a
			// base as a real one, and deriving back reproduces the base.
			back, err := core.DeriveSnapshot(derived, c.factory(), c.opts)
			if err != nil {
				t.Fatalf("derive back seed %d -> %d: %v", target.Seed, effSeed, err)
			}
			backBytes, err := back.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(backBytes, baseBytes) {
				t.Errorf("seed round-tripped snapshot differs from the original base capture (%d vs %d bytes)",
					len(backBytes), len(baseBytes))
			}
		})
	}
}

// TestDeriveSeedIterationChainMatchesCapture pins composability: a
// derived-then-derived chain — iteration transposition first, then seed
// transposition of the *derived* snapshot — must land byte-identical to
// a real capture at the combined (iterations, seed) target, and the
// fused one-step derivation must agree.
func TestDeriveSeedIterationChainMatchesCapture(t *testing.T) {
	for _, c := range equivCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w := c.factory()
			fam, okIter := w.(workloads.IterationFamily)
			sf, okSeed := w.(workloads.SeedFamily)
			if !okIter || !okSeed || !sf.SeedInvariant() {
				reason, listed := deriveSkipList[c.name]
				if !listed {
					t.Fatalf("workload %q declares no full derivation family and is not on the documented skip list", c.name)
				}
				t.Skipf("derivation opt-out: %s", reason)
			}

			base, err := core.Capture(c.factory(), c.opts)
			if err != nil {
				t.Fatalf("base capture: %v", err)
			}

			effIters := c.opts.Iterations
			if effIters <= 0 {
				effIters = fam.DefaultIterations()
			}
			effSeed := c.opts.Seed
			if effSeed == 0 {
				effSeed = 1
			}
			mid := c.opts
			mid.Iterations = 2 * effIters
			target := mid
			target.Seed = effSeed + 1

			step1, err := core.DeriveSnapshot(base, c.factory(), mid)
			if err != nil {
				t.Fatalf("chain step 1 (iterations %d -> %d): %v", effIters, mid.Iterations, err)
			}
			chained, err := core.DeriveSnapshot(step1, c.factory(), target)
			if err != nil {
				t.Fatalf("chain step 2 (seed %d -> %d): %v", effSeed, target.Seed, err)
			}
			real, err := core.Capture(c.factory(), target)
			if err != nil {
				t.Fatalf("capture at chained target: %v", err)
			}
			realBytes, err := real.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			chainedBytes, err := chained.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(chainedBytes, realBytes) {
				t.Errorf("seed∘iteration chained snapshot differs from real capture at iterations=%d seed=%d (%d vs %d bytes)",
					target.Iterations, target.Seed, len(chainedBytes), len(realBytes))
			}

			// The fused one-step derivation (iterations and seed at once)
			// must agree with the chain.
			fused, err := core.DeriveSnapshot(base, c.factory(), target)
			if err != nil {
				t.Fatalf("fused derivation: %v", err)
			}
			fusedBytes, err := fused.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fusedBytes, realBytes) {
				t.Errorf("fused (iterations+seed) derivation differs from real capture (%d vs %d bytes)",
					len(fusedBytes), len(realBytes))
			}
		})
	}
}
