package core

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hmpt/internal/shim"
	"hmpt/internal/units"
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

// FuzzReadAnalysisMatchesReference: the section-parsed decoder and the
// field-by-field reference reader agree on every input — both accept
// or both reject, and an accepted input decodes to reflect.DeepEqual
// analyses under the same identifier. Each input is also tried
// re-sealed, as in FuzzDecodeAnalysis, so mutations reach the body.
func FuzzReadAnalysisMatchesReference(f *testing.F) {
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
		requireDecodersAgree(t, raw)
		if len(raw) >= wire.SealLen {
			var e wire.Encoder
			e.Raw(raw[:len(raw)-wire.SealLen])
			requireDecodersAgree(t, e.Seal())
		}
	})
}

func requireDecodersAgree(t *testing.T, raw []byte) {
	t.Helper()
	an, id, err := DecodeAnalysis(raw)
	ref, refID, refErr := referenceDecodeAnalysis(raw)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("decoders disagree on %d bytes: ReadAnalysis err %v, reference err %v", len(raw), err, refErr)
	}
	if err != nil {
		return
	}
	if id != refID || !bitEqual(reflect.ValueOf(an), reflect.ValueOf(ref)) {
		t.Fatalf("decoders accept %d bytes but decode different analyses (ids %q, %q)", len(raw), id, refID)
	}
}

// bitEqual is reflect.DeepEqual with floats compared by bit image, so
// two decodes of the same NaN (which DeepEqual never calls equal) agree
// and two decodes of different NaN payloads or zero signs do not.
func bitEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitEqual(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// referenceDecodeAnalysis is DecodeAnalysis over referenceReadAnalysis.
func referenceDecodeAnalysis(raw []byte) (*Analysis, string, error) {
	if len(raw) < len(analysisMagic)+4+wire.SealLen || string(raw[:len(analysisMagic)]) != analysisMagic {
		return nil, "", fmt.Errorf("bad header")
	}
	payload, err := wire.CheckSeal(raw)
	if err != nil {
		return nil, "", err
	}
	d := wire.NewDecoder(payload[len(analysisMagic):])
	an, id, err := referenceReadAnalysis(d)
	if err != nil {
		return nil, "", err
	}
	if d.Len() != 0 {
		return nil, "", fmt.Errorf("%d trailing bytes", d.Len())
	}
	return an, id, nil
}

// referenceReadAnalysis reads an analysis body one wire.Decoder call
// per field, the config section included: the straightforward reader
// the section-parsed ReadAnalysis must agree with.
func referenceReadAnalysis(d *wire.Decoder) (*Analysis, string, error) {
	if v := d.U32(); v != AnalysisVersion {
		if err := d.Err(); err != nil {
			return nil, "", err
		}
		return nil, "", fmt.Errorf("analysis codec version %d", v)
	}
	id := d.Str()

	an := &Analysis{}
	an.Workload = d.Str()
	an.Platform = d.Str()
	an.TotalBytes = units.Bytes(d.I64())
	an.Threads = int(d.I64())
	an.Runs = int(d.I64())
	an.BaselineTime = units.Duration(d.F64())
	an.FilteredAllocs = int(d.I64())
	an.TotalAllocs = int(d.I64())
	an.SampleCount = int(d.I64())

	nGroups, nAllocs := d.U32(), d.U32()
	if err := d.Fits(uint64(nGroups), minGroupLen); err != nil {
		return nil, "", err
	}
	if err := d.Fits(uint64(nAllocs), 8); err != nil {
		return nil, "", err
	}
	allocs := carver[shim.AllocID]{buf: make([]shim.AllocID, nAllocs)}
	if nGroups > 0 {
		an.Groups = make([]Group, nGroups)
	}
	for i := range an.Groups {
		g := &an.Groups[i]
		g.Index = int(d.I64())
		g.Label = d.Str()
		g.Rest = d.Bool()
		var err error
		if g.Allocs, err = allocs.next(d.U32()); err != nil {
			return nil, "", err
		}
		for j := range g.Allocs {
			g.Allocs[j] = shim.AllocID(d.U64())
		}
		g.SimBytes = units.Bytes(d.I64())
		g.Frac = d.F64()
		g.Density = d.F64()
		g.SoloSpeedup = d.F64()
	}
	if err := allocs.done(); err != nil {
		return nil, "", err
	}

	nConfigs, nMembers, nTimes := d.U32(), d.U32(), d.U32()
	if err := d.Fits(uint64(nConfigs), minConfigLen); err != nil {
		return nil, "", err
	}
	if err := d.Fits(uint64(nMembers)+uint64(nTimes), 8); err != nil {
		return nil, "", err
	}
	members := carver[int]{buf: make([]int, nMembers)}
	times := carver[units.Duration]{buf: make([]units.Duration, nTimes)}
	var labels strings.Builder
	if nConfigs > 0 {
		an.Configs = make([]Config, nConfigs)
	}
	for i := range an.Configs {
		c := &an.Configs[i]
		c.Mask = d.U32()
		var err error
		if c.Groups, err = members.next(d.U32()); err != nil {
			return nil, "", err
		}
		for j := range c.Groups {
			c.Groups[j] = int(d.I64())
		}
		start := labels.Len()
		labels.Write(d.StrBytes())
		c.Label = labels.String()[start:]
		c.HBMBytes = units.Bytes(d.I64())
		c.HBMFrac = d.F64()
		c.SampleFrac = d.F64()
		if c.Times, err = times.next(d.U32()); err != nil {
			return nil, "", err
		}
		for j := range c.Times {
			c.Times[j] = units.Duration(d.F64())
		}
		c.MeanTime = units.Duration(d.F64())
		c.Speedup = d.F64()
		c.SpeedupCI = d.F64()
		c.EstSpeedup = d.F64()
		c.Feasible = d.Bool()
	}
	if err := members.done(); err != nil {
		return nil, "", err
	}
	if err := times.done(); err != nil {
		return nil, "", err
	}
	if err := d.Err(); err != nil {
		return nil, "", err
	}
	return an, id, nil
}
