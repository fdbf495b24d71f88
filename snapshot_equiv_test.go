// Snapshot-replay equivalence tests: for every registered workload, a
// captured reference run encoded to bytes, decoded back, and replayed
// through the tuner must be byte-identical to a live analysis that
// executed the kernel. Together with engine_equiv_test.go this extends
// the bit-exactness oracle across the snapshot codec, so "replay from
// snapshot" can substitute for "run the kernel" anywhere.
package hmpt

import (
	"bytes"
	"reflect"
	"testing"

	"hmpt/internal/core"
	"hmpt/internal/trace"
)

// TestReplayMatchesLive captures, round-trips through the codec, and
// replays every registered workload, comparing against the live engine
// analysis (itself equivalence-tested against the naive oracle).
func TestReplayMatchesLive(t *testing.T) {
	t.Parallel()
	for _, c := range equivCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			snap, err := core.Capture(c.factory(), c.opts)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			enc, err := snap.EncodeBytes()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			enc2, err := snap.EncodeBytes()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatal("captured snapshot does not encode deterministically")
			}
			dec, err := trace.DecodeSnapshotBytes(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(snap, dec) {
				t.Fatal("decoded snapshot differs from captured snapshot")
			}

			live, err := core.New(c.factory(), c.opts).Analyze()
			if err != nil {
				t.Fatalf("live: %v", err)
			}
			lctx, led := ledgerContext()
			replay, err := core.NewReplay(dec, c.opts).AnalyzeContext(lctx)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if got := led.Work().Kernels; got != 0 {
				t.Errorf("replay executed %d kernels, want 0", got)
			}
			diffAnalyses(t, live, replay)

			// The naive-oracle path must accept snapshots identically.
			replayRef, err := core.NewReplay(dec, c.opts).AnalyzeReference()
			if err != nil {
				t.Fatalf("replay reference: %v", err)
			}
			if !reflect.DeepEqual(live, replayRef) {
				t.Error("snapshot replay through the naive oracle differs from live analysis")
			}
		})
	}
}

// TestReplayRejectsMismatchedOptions: a snapshot injected under options
// that disagree with its capture inputs must fail loudly instead of
// silently diverging from a live run.
func TestReplayRejectsMismatchedOptions(t *testing.T) {
	spec := equivCases(t)[0]
	snap, err := core.Capture(spec.factory(), spec.opts)
	if err != nil {
		t.Fatal(err)
	}
	bad := spec.opts
	bad.Seed = snap.Meta.Seed + 1
	bad.Snapshot = snap
	if _, err := core.New(spec.factory(), bad).Analyze(); err == nil {
		t.Error("analysis accepted a snapshot captured under a different seed")
	}
	wrong := equivCases(t)[1]
	mis := wrong.opts
	mis.Snapshot = snap
	if _, err := core.New(wrong.factory(), mis).Analyze(); err == nil {
		t.Error("analysis accepted a snapshot of a different workload")
	}
}
