package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hmpt/internal/wire"
	"hmpt/internal/workloads/synth"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenAnalysisPath is the committed encoding of testAnalysis under
// the identifier "golden".
var goldenAnalysisPath = filepath.Join("testdata", "analysis_v2.anl")

// TestAnalysisGolden pins the on-disk format: the sample analysis must
// encode to exactly the committed golden bytes, and the golden bytes
// must decode to exactly the sample analysis. Any codec change breaks
// this test and must bump AnalysisVersion with a new golden file.
func TestAnalysisGolden(t *testing.T) {
	enc, err := EncodeAnalysisRaw("golden", testAnalysis())
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenAnalysisPath, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenAnalysisPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(enc, golden) {
		t.Errorf("encoding diverged from golden file (%d vs %d bytes); bump AnalysisVersion for format changes", len(enc), len(golden))
	}
	dec, id, err := DecodeAnalysis(golden)
	if err != nil {
		t.Fatalf("decoding golden file: %v", err)
	}
	if id != "golden" || !reflect.DeepEqual(testAnalysis(), dec) {
		t.Error("golden file decodes to a different analysis")
	}
}

// TestAnalysisLenIsExact: AnalysisLen predicts the body length exactly,
// so an encode sizes its buffer once — for a populated analysis, a
// real one, and one with every slice empty.
func TestAnalysisLenIsExact(t *testing.T) {
	for name, an := range map[string]*Analysis{
		"sample": testAnalysis(),
		"synth":  analyzeDefault(t),
		"empty":  {Workload: "w"},
	} {
		raw, err := EncodeAnalysisRaw("id", an)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(analysisMagic) + AnalysisLen("id", an) + wire.SealLen; len(raw) != want {
			t.Errorf("%s: encoded %d bytes, AnalysisLen predicts %d", name, len(raw), want)
		}
	}
}

// TestDecodedSlicesAreIndependent: the decoder carves every config's
// Groups and Times (and every group's Allocs) out of shared backing
// arrays, and so does the sweep for the configs it builds, so each
// carved slice must be capped at its own length — appending to one
// config's slice must not overwrite its neighbour's elements. Checked
// on a decoded sample, a pipeline-produced analysis and its decoding.
func TestDecodedSlicesAreIndependent(t *testing.T) {
	decoded := func(an *Analysis) func() *Analysis {
		raw, err := EncodeAnalysisRaw("id", an)
		if err != nil {
			t.Fatal(err)
		}
		return func() *Analysis {
			dec, _, err := DecodeAnalysis(raw)
			if err != nil {
				t.Fatal(err)
			}
			return dec
		}
	}
	for _, tc := range []struct {
		name    string
		analyze func() *Analysis
		decoded bool
	}{
		{"decoded sample", decoded(testAnalysis()), true},
		{"pipeline", func() *Analysis { return analyzeDefault(t) }, false},
		{"decoded pipeline", decoded(analyzeDefault(t)), true},
	} {
		an, want := tc.analyze(), tc.analyze()
		for i := 0; i+1 < len(an.Configs); i++ {
			an.Configs[i].Groups = append(an.Configs[i].Groups, 99)
			an.Configs[i].Times = append(an.Configs[i].Times, 99)
			if !reflect.DeepEqual(an.Configs[i+1], want.Configs[i+1]) {
				t.Fatalf("%s: appending to config %d's Groups or Times overwrote config %d", tc.name, i, i+1)
			}
		}
		if !tc.decoded {
			continue // the pipeline's group Allocs come from the registry, not a carver
		}
		for i := 0; i+1 < len(an.Groups); i++ {
			an.Groups[i].Allocs = append(an.Groups[i].Allocs, 99)
			if !reflect.DeepEqual(an.Groups[i+1].Allocs, want.Groups[i+1].Allocs) {
				t.Fatalf("%s: appending to group %d's Allocs overwrote group %d", tc.name, i, i+1)
			}
		}
	}
}

// TestDecodeAnalysisRejectsBadTotals: the element totals ahead of the
// config section must match the per-config counts exactly, in both
// directions, and bool fields accept only 0 and 1.
func TestDecodeAnalysisRejectsBadTotals(t *testing.T) {
	an := testAnalysis()
	good, err := EncodeAnalysisRaw("id", an)
	if err != nil {
		t.Fatal(err)
	}
	// The config section opens with three u32s: count, total Groups
	// members, total Times.
	timesTotal := len(analysisMagic) + AnalysisLen("id", an) - configsLen(an) - 4
	reseal := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good[:len(good)-wire.SealLen]...)
		mutate(b)
		var e wire.Encoder
		e.Raw(b)
		return e.Seal()
	}
	for name, delta := range map[string]byte{"total too small": 0xff, "total too large": 1} {
		raw := reseal(func(b []byte) { b[timesTotal] += delta })
		if _, _, err := DecodeAnalysis(raw); err == nil {
			t.Errorf("%s: decoded an analysis whose Times total disagrees with its configs", name)
		}
	}
	raw := reseal(func(b []byte) { b[len(b)-1] = 2 }) // the last config's Feasible flag
	if _, _, err := DecodeAnalysis(raw); err == nil {
		t.Error("decoded a bool byte of 2")
	}
}

// configsLen is the encoded size of an's config entries (excluding the
// section's count and totals).
func configsLen(an *Analysis) int {
	n := 0
	for i := range an.Configs {
		c := &an.Configs[i]
		n += minConfigLen + 8*len(c.Groups) + len(c.Label) + 8*len(c.Times)
	}
	return n
}

// FuzzDecodeAnalysis: the decoder never panics on arbitrary bytes, and
// any input it accepts re-encodes to exactly the same bytes. Each input
// is also tried re-sealed, so mutations reach the body decoder instead
// of stopping at the checksum.
func FuzzDecodeAnalysis(f *testing.F) {
	if golden, err := os.ReadFile(goldenAnalysisPath); err == nil {
		f.Add(golden)
	}
	live, err := New(synth.Default(), Options{Seed: 42}).Analyze()
	if err != nil {
		f.Fatal(err)
	}
	for _, an := range []*Analysis{testAnalysis(), {Workload: "w"}, live} {
		raw, err := EncodeAnalysisRaw("seed", an)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		requireAnalysisRoundTrip(t, raw)
		if len(raw) >= wire.SealLen {
			var e wire.Encoder
			e.Raw(raw[:len(raw)-wire.SealLen])
			requireAnalysisRoundTrip(t, e.Seal())
		}
	})
}

func requireAnalysisRoundTrip(t *testing.T, raw []byte) {
	t.Helper()
	an, id, err := DecodeAnalysis(raw)
	if err != nil {
		return
	}
	re, err := EncodeAnalysisRaw(id, an)
	if err != nil {
		t.Fatalf("re-encoding an accepted analysis: %v", err)
	}
	if !bytes.Equal(re, raw) {
		t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(raw), len(re))
	}
}
