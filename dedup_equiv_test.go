// Phase-deduplication equivalence tests: every captured reference run
// must carry the canonical deduplicated trace (each distinct phase shape
// once, multiplicity in Repeat), the deduplicated pipeline must stay
// byte-identical between the compiled engine and the naive per-phase
// oracle, and the O(unique phases) contract must hold: raising a
// kernel's iteration count grows its trace, its snapshot and its
// sampling table not at all.
package hmpt

import (
	"reflect"
	"testing"

	"hmpt/internal/core"
	"hmpt/internal/experiments"
)

// TestDedupMatchesReference: for every registered workload, the capture
// is canonical and the engine and oracle analyses of the deduplicated
// trace are byte-identical.
func TestDedupMatchesReference(t *testing.T) {
	for _, c := range equivCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			snap, err := core.Capture(c.factory(), c.opts)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			can := snap.Trace.Canonical()
			if len(can.Phases) != len(snap.Trace.Phases) {
				t.Errorf("captured trace is not canonical: %d phases but %d distinct shapes",
					len(snap.Trace.Phases), len(can.Phases))
			}
			if !reflect.DeepEqual(snap.Trace, can) {
				t.Error("captured trace is not a fixed point of Canonical")
			}
			eng, err := core.NewReplay(snap, c.opts).Analyze()
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			ref, err := core.NewReplay(snap, c.opts).AnalyzeReference()
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			diffAnalyses(t, ref, eng)
		})
	}
}

// TestDedupIterationInvariance is the O(unique phases) claim made
// concrete: the same kernel captured at 10x its default timestep count
// produces a trace with exactly the same number of phases, a snapshot
// within a rounding error of the same size, and an identically shaped
// sampling table — only the multiplicities (and the kernel execution
// itself) grow. The 10x analysis must also stay engine/oracle
// byte-identical.
func TestDedupIterationInvariance(t *testing.T) {
	spec, err := experiments.SpecFor("npb.bt")
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.Capture(spec.Fast(), spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	opts10 := spec.Options
	opts10.Iterations = 30 // 10x the fast instance's default of 3
	snap10, err := core.Capture(spec.Fast(), opts10)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := len(snap10.Trace.Phases), len(base.Trace.Phases); got != want {
		t.Errorf("10x-iteration trace has %d phases, 1x has %d — dedup must keep them equal", got, want)
	}
	if got, want := len(snap10.Samples.ByAlloc), len(base.Samples.ByAlloc); got != want {
		t.Errorf("10x sampling table has %d entries, 1x has %d", got, want)
	}
	enc1, err := base.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	enc10, err := snap10.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	// The only growth allowed is field values (repeat counts, sample
	// totals), not structure: sizes are byte-identical because every
	// count is fixed-width on the wire.
	if len(enc10) != len(enc1) {
		t.Errorf("10x snapshot is %d bytes, 1x is %d — encoding must be O(unique phases)", len(enc10), len(enc1))
	}

	eng, err := core.NewReplay(snap10, opts10).Analyze()
	if err != nil {
		t.Fatalf("10x engine: %v", err)
	}
	ref, err := core.NewReplay(snap10, opts10).AnalyzeReference()
	if err != nil {
		t.Fatalf("10x oracle: %v", err)
	}
	diffAnalyses(t, ref, eng)
}
