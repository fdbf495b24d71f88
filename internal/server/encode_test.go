package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"hmpt/internal/core"
)

// jsonOracle encodes v the way the handlers did before the append
// encoder: a json.Encoder with two-space indentation.
func jsonOracle(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// checkSameBytes fails unless the append encoder and encoding/json agree
// on r: the same bytes, or both refuse it.
func checkSameBytes(t *testing.T, r any) {
	t.Helper()
	var got []byte
	var err error
	switch r := r.(type) {
	case *AnalyzeResponse:
		got, err = encodeAnalyzeResponse(r)
	case *CampaignResponse:
		got, err = encodeCampaignResponse(r)
	}
	want, werr := jsonOracle(r)
	switch {
	case (err != nil) != (werr != nil):
		t.Fatalf("append encoder error %v, encoding/json error %v", err, werr)
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf("append encoder bytes differ from encoding/json:\n got %q\nwant %q", got, want)
	}
}

// fuzzCell builds a cell from fuzzed fields; flags sets the five
// provenance booleans.
func fuzzCell(strs [5]string, floats [4]float64, mem int64, filtered, samples int, flags uint8) CellResult {
	return CellResult{
		Workload: strs[0], Platform: strs[1], Variant: strs[2], Error: strs[3], BestConfig: strs[4],
		MaxSpeedup: floats[0], HBMOnlySpeedup: floats[1], NinetyUsage: floats[2], BaselineSec: floats[3],
		MemoryBytes: mem, FilteredAllocs: filtered, SampleCount: samples,
		AnalysisFromCache: flags&1 != 0, SnapshotFromCache: flags&2 != 0, Derived: flags&4 != 0,
		SeedDerived: flags&8 != 0, Coalesced: flags&16 != 0,
	}
}

// fuzzCounters fills the sixteen counters from consecutive 8-byte words
// of raw; missing words are zero.
func fuzzCounters(raw []byte) RunCounters {
	var v [16]int64
	for i := range v {
		if len(raw) >= 8*(i+1) {
			v[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	return RunCounters{
		Snapshots: int(v[0]), Executions: int(v[1]), CacheHits: int(v[2]), Derived: int(v[3]),
		SeedDerived: int(v[4]), Coalesced: int(v[5]), AnalysisHits: int(v[6]), CacheErrs: int(v[7]),
		Work: core.Work{
			Kernels: v[8], SamplePasses: v[9], SweepEvaluations: v[10], CountWalks: v[11],
			Derived: v[12], SeedDerived: v[13], Coalesced: v[14], RecoveredPanics: v[15],
		},
	}
}

// FuzzResponseEncoding checks the append encoder against encoding/json:
// for an arbitrary cell and counters, the analyze response and campaign
// responses of 0 to 4 cells (and a nil cell list) encode to the same
// bytes, or both encoders refuse them (a NaN or infinite float).
func FuzzResponseEncoding(f *testing.F) {
	negZero := math.Copysign(0, -1)
	counts := make([]byte, 16*8)
	for i := range counts {
		counts[i] = byte(i * 37)
	}
	for _, s := range []struct {
		strs   [5]string
		floats [4]float64
	}{
		{[5]string{"npb.mg", "xeonmax", "", "", "g0+g2"}, [4]float64{1.87, 1.8, 0.42, 0.0123}},
		{[5]string{"<script>&amp;</script>", "a>b", "seed<1>", "x & y", "&&"}, [4]float64{1, 2, 3, 4}},
		{[5]string{"\xff\xfe", "ok\xc3", "\xe2\x80", "a\xffb\xc0\x80", "\xed\xa0\x80"}, [4]float64{}},
		{[5]string{"\u2028", "\u2029", "x\u2028y\u2029z", "\u2027\u202a", "\u00e9\u65e5\u672c"}, [4]float64{}},
		{[5]string{"\x00\x01\x1f", "\b\f\n\r\t", "\x7f", `"quoted" \ back`, "\x1b[0m"}, [4]float64{}},
		{[5]string{"w", "p", "", "", ""}, [4]float64{math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64}},
		{[5]string{"w", "p", "", "", ""}, [4]float64{negZero, 1e-6, math.Nextafter(1e-6, 0), -1e-6}},
		{[5]string{"w", "p", "", "", ""}, [4]float64{1e21, math.Nextafter(1e21, 0), -1e21, 1e20}},
		{[5]string{"w", "p", "", "", ""}, [4]float64{1e-7, 1e-10, 1.5e-300, 123456789e300}},
		{[5]string{"w", "p", "", "", ""}, [4]float64{math.NaN(), 1, 1, 1}},
		{[5]string{"w", "p", "", "", ""}, [4]float64{1, math.Inf(1), 1, 1}},
		{[5]string{"w", "p", "", "", ""}, [4]float64{1, 1, 1, math.Inf(-1)}},
	} {
		f.Add(s.strs[0], s.strs[1], s.strs[2], s.strs[3], s.strs[4],
			s.floats[0], s.floats[1], s.floats[2], s.floats[3],
			int64(-1)<<40, 7, 1234, uint8(0b10101), counts, uint8(3))
	}
	f.Add("", "", "", "", "", 0.0, 0.0, 0.0, 0.0, int64(0), 0, 0, uint8(0), []byte(nil), uint8(0))
	f.Add("w", "p", "", "", "", 1.0, 1.0, 1.0, 1.0, int64(math.MaxInt64), math.MinInt, math.MaxInt, uint8(0xff), counts, uint8(0x80))
	f.Fuzz(func(t *testing.T, workload, platform, variant, errMsg, best string,
		max, hbm, ninety, baseline float64, mem int64, filtered, samples int, flags uint8,
		counts []byte, nCells uint8) {
		cell := fuzzCell([5]string{workload, platform, variant, errMsg, best},
			[4]float64{max, hbm, ninety, baseline}, mem, filtered, samples, flags)
		counters := fuzzCounters(counts)
		checkSameBytes(t, &AnalyzeResponse{Result: cell, Counters: counters})

		n := int(nCells % 5)
		camp := &CampaignResponse{Counters: counters}
		if n > 0 || nCells&0x80 == 0 {
			camp.Cells = make([]CellResult, 0, n)
		}
		for i := 0; i < n; i++ {
			c := cell
			c.SampleCount += i
			c.Coalesced = c.Coalesced != (i%2 == 1)
			camp.Cells = append(camp.Cells, c)
		}
		checkSameBytes(t, camp)
	})
}

// TestResponseEncodingRandom runs the byte-identity oracle over random
// responses whose strings mix ASCII, HTML characters, control bytes,
// multi-byte runes, U+2028/U+2029 and invalid UTF-8, and whose floats
// span every magnitude.
func TestResponseEncodingRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pieces := []string{"a", "npb.mg", "<", ">", "&", `"`, `\`, "\x00", "\n", "\x1f", "\x7f",
		"\u00e9", "\u65e5", "\u2028", "\u2029", "\xff", "\xe2\x80", "\U0001F600", " ", "g0+g1"}
	str := func() string {
		var b []byte
		for n := rng.Intn(6); n > 0; n-- {
			b = append(b, pieces[rng.Intn(len(pieces))]...)
		}
		return string(b)
	}
	float := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Float64frombits(rng.Uint64()) // any bit image, NaN and infinities included
		default:
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
		}
	}
	counts := make([]byte, 16*8)
	for i := 0; i < 3000; i++ {
		rng.Read(counts)
		cell := fuzzCell([5]string{str(), str(), str(), str(), str()},
			[4]float64{float(), float(), float(), float()},
			rng.Int63()-rng.Int63(), rng.Intn(1<<20), rng.Intn(1<<20), uint8(rng.Intn(32)))
		counters := fuzzCounters(counts[:8*rng.Intn(17)])
		checkSameBytes(t, &AnalyzeResponse{Result: cell, Counters: counters})
		camp := &CampaignResponse{Counters: counters}
		for n := rng.Intn(4); n > 0; n-- {
			c := cell
			c.Variant = str()
			camp.Cells = append(camp.Cells, c)
		}
		checkSameBytes(t, camp)
	}
}

// TestEncoderCoversEveryField sets every field of the two responses,
// down to the leaves of RunCounters.Work, to a non-zero value one at a
// time and checks the append encoder against encoding/json. The fuzz
// oracle only sees the fields fuzzCell and fuzzCounters fill in; this
// test is what fails when a field is added to CellResult, RunCounters
// or core.Work and encode.go does not write it. Extend encode.go, its
// size hints and fuzzCell/fuzzCounters with the new field.
func TestEncoderCoversEveryField(t *testing.T) {
	for _, zero := range []any{&AnalyzeResponse{}, &CampaignResponse{Cells: []CellResult{{}}}} {
		leaves := 0
		eachLeaf(t, reflect.ValueOf(zero).Elem(), func(reflect.Value) { leaves++ })
		for k := 0; k < leaves; k++ {
			r := reflect.New(reflect.TypeOf(zero).Elem())
			if c, ok := zero.(*CampaignResponse); ok {
				r.Interface().(*CampaignResponse).Cells = make([]CellResult, len(c.Cells))
			}
			i := 0
			eachLeaf(t, r.Elem(), func(v reflect.Value) {
				if i == k {
					setNonZero(t, v)
				}
				i++
			})
			checkSameBytes(t, r.Interface())
		}
	}
}

// eachLeaf calls f on every non-struct field reachable from the struct
// v, descending into nested structs and the elements of struct slices.
func eachLeaf(t *testing.T, v reflect.Value, f func(reflect.Value)) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Struct:
			eachLeaf(t, fv, f)
		case reflect.Slice:
			for j := 0; j < fv.Len(); j++ {
				eachLeaf(t, fv.Index(j), f)
			}
		default:
			f(fv)
		}
	}
}

func setNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString("<x>")
	case reflect.Int, reflect.Int64:
		v.SetInt(-7)
	case reflect.Float64:
		v.SetFloat(0.5)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("a response field of kind %s: teach encode.go and this test to write it", v.Kind())
	}
}

// TestUnencodableResponseIs500 drives a response with a float JSON
// cannot hold through the handler: an analysis-cache entry whose
// all-HBM speedup is NaN (so the response's hbm_only_speedup is NaN), or
// +Inf (so its max_speedup is +Inf). Nothing has been written when the
// encoder refuses, so the answer is 500 encode_failed with the
// structured error body, counted in hmptd_request_errors_total; a 200
// with an empty body would pass for success.
func TestUnencodableResponseIs500(t *testing.T) {
	for _, tc := range []struct {
		name    string
		speedup float64
	}{{"nan", math.NaN()}, {"inf", math.Inf(1)}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m, rerr := (&AnalyzeRequest{Workload: "synth"}).matrix()
			if rerr != nil {
				t.Fatal(rerr.msg)
			}
			opts := m.Workloads[0].Options
			opts.Platform = m.Platforms[0].Platform
			key, err := core.AnalysisKeyFor("synth", opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			cache, err := core.NewAnalysisCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := cache.Store(key, &core.Analysis{
				Workload: "synth", Platform: "p", Runs: 1,
				Groups: []core.Group{{Label: "g"}},
				Configs: []core.Config{
					{Label: "[]", Speedup: 1},
					{Mask: 1, Groups: []int{0}, Label: "[0]", Speedup: tc.speedup},
				},
			}); err != nil {
				t.Fatal(err)
			}

			_, ts := newTestServer(t, Config{AnalysisCacheDir: dir})
			resp, b := postJSON(t, ts.URL+"/v1/analyze", `{"workload":"synth"}`)
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("status %d, want 500: %q", resp.StatusCode, b)
			}
			if code := errorCode(t, b); code != "encode_failed" {
				t.Errorf("error code %q, want encode_failed", code)
			}
			metrics, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer metrics.Body.Close()
			text, err := io.ReadAll(metrics.Body)
			if err != nil {
				t.Fatal(err)
			}
			if want := `hmptd_request_errors_total{code="encode_failed"} 1`; !strings.Contains(string(text), want) {
				t.Errorf("/metrics lacks %s", want)
			}
		})
	}
}

// TestResponseSizeHintIsABound: the pre-sized buffer holds the largest
// cell and counters the field types allow, so encoding never grows it.
func TestResponseSizeHintIsABound(t *testing.T) {
	counts := make([]byte, 16*8)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint64(counts[8*i:], 1<<63) // math.MinInt64: 20 bytes
	}
	cell := fuzzCell([5]string{"\x00", "\x00", "\x00", "\x00", "\x00"},
		[4]float64{-2.2250738585072014e-308, -2.2250738585072014e-308, -2.2250738585072014e-308, -2.2250738585072014e-308},
		math.MinInt64, math.MinInt, math.MinInt, 0xff)
	camp := &CampaignResponse{Cells: []CellResult{cell, cell}, Counters: fuzzCounters(counts)}
	body, err := encodeCampaignResponse(camp)
	if err != nil {
		t.Fatal(err)
	}
	hint := countersSizeHint + 2*cellSizeHint(&cell)
	if len(body) > hint {
		t.Errorf("a %d-byte campaign response outgrew its %d-byte hint", len(body), hint)
	}
}
