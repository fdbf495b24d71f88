// Analysis-cache equivalence tests: for every registered workload, an
// analysis encoded through the versioned analysis codec, stored in the
// content-addressed cache, and loaded back must be byte-identical
// (reflect.DeepEqual) to the live analysis — on both the sweep-engine
// and naive-oracle paths. Together with engine_equiv_test.go and
// snapshot_equiv_test.go this extends the bit-exactness oracle across
// the third caching layer, so "load the analysis" can substitute for
// "probe and sweep the placement space" anywhere.
package hmpt

import (
	"bytes"
	"reflect"
	"testing"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
)

// analysisKeyFor computes the cell's cache key, going through a capture
// context when the options carry a GroupBy policy (its fingerprint
// needs the capture's sites).
func analysisKeyFor(t *testing.T, c equivCase) core.AnalysisKey {
	t.Helper()
	if c.opts.GroupBy == nil {
		key, err := core.AnalysisKeyFor(c.name, c.opts, nil)
		if err != nil {
			t.Fatalf("key: %v", err)
		}
		return key
	}
	snap, err := core.Capture(c.factory(), c.opts)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	ctx, err := core.NewContext(snap)
	if err != nil {
		t.Fatalf("context: %v", err)
	}
	key, err := core.AnalysisKeyFor(c.name, c.opts, ctx.Sites())
	if err != nil {
		t.Fatalf("key: %v", err)
	}
	return key
}

// TestAnalysisCacheRoundTrip stores and reloads every registered
// workload's analysis through the cache, comparing byte-for-byte
// against the live engine analysis and the naive-oracle analysis.
func TestAnalysisCacheRoundTrip(t *testing.T) {
	t.Parallel()
	cache, err := core.NewAnalysisCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range equivCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			key := analysisKeyFor(t, c)

			live, err := core.New(c.factory(), c.opts).Analyze()
			if err != nil {
				t.Fatalf("live: %v", err)
			}
			enc, err := core.EncodeAnalysis(key, live)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			enc2, err := core.EncodeAnalysis(key, live)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatal("analysis does not encode deterministically")
			}
			dec, keyID, err := core.DecodeAnalysis(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if keyID != key.ID() {
				t.Fatalf("embedded key %s, want %s", keyID[:12], key.ID()[:12])
			}
			if !reflect.DeepEqual(live, dec) {
				t.Fatal("decoded analysis differs from live analysis")
			}

			if err := cache.Store(key, live); err != nil {
				t.Fatalf("store: %v", err)
			}
			cached, ok, err := cache.Load(key)
			if err != nil || !ok {
				t.Fatalf("load: ok=%v err=%v", ok, err)
			}
			// Load takes no context, so its ledger check runs through
			// the engine: a cell served from this cache costs nothing.
			served, err := (&campaign.Engine{Analyses: cache}).Run(campaign.Matrix{
				Workloads: []campaign.Workload{{Name: c.name, Factory: c.factory, Options: c.opts}},
				Platforms: []campaign.Platform{{Name: "p", Platform: c.opts.Platform}},
			})
			if err != nil || served.AnalysisHits != 1 {
				t.Fatalf("engine over the cache: err=%v, want one analysis hit (%+v)", err, served)
			}
			if got := served.Work.SweepEvaluations; got != 0 {
				t.Errorf("cache load ran %d placement passes, want 0", got)
			}
			if !reflect.DeepEqual(live, cached) {
				t.Fatal("cached analysis differs from live analysis")
			}

			// The naive-oracle path round-trips identically too.
			ref, err := core.New(c.factory(), c.opts).AnalyzeReference()
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			encRef, err := core.EncodeAnalysis(key, ref)
			if err != nil {
				t.Fatalf("encode reference: %v", err)
			}
			decRef, _, err := core.DecodeAnalysis(encRef)
			if err != nil {
				t.Fatalf("decode reference: %v", err)
			}
			if !reflect.DeepEqual(ref, decRef) {
				t.Fatal("decoded oracle analysis differs from the oracle analysis")
			}
			if !bytes.Equal(enc, encRef) {
				t.Fatal("oracle analysis encodes differently from the engine analysis")
			}
		})
	}
}
