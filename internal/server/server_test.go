package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	_ "hmpt/internal/workloads/synth"
)

// newTestServer boots a Server (optionally over a shared cache tree)
// behind an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// errorCode decodes the structured error envelope.
func errorCode(t *testing.T, body []byte) string {
	t.Helper()
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not the structured envelope: %v\n%s", err, body)
	}
	if e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("error envelope missing code or message: %s", body)
	}
	return e.Error.Code
}

func TestBadJSONReturns400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		"{not json",
		`{"workload": 7}`,
		`{"workload":"synth","no_such_field":true}`,
	} {
		resp, b := postJSON(t, ts.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
		if code := errorCode(t, b); code != "bad_json" {
			t.Errorf("body %q: error code %q, want bad_json", body, code)
		}
	}
}

func TestUnknownWorkloadReturns404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postJSON(t, ts.URL+"/v1/analyze", `{"workload":"no-such-benchmark"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
	if code := errorCode(t, b); code != "unknown_workload" {
		t.Errorf("error code %q, want unknown_workload", code)
	}
	resp, b = postJSON(t, ts.URL+"/v1/campaign", `{"workloads":["synth","nope"]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("campaign status %d, want 404", resp.StatusCode)
	}
	if code := errorCode(t, b); code != "unknown_workload" {
		t.Errorf("campaign error code %q, want unknown_workload", code)
	}
}

func TestUnknownPlatformReturns400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postJSON(t, ts.URL+"/v1/analyze", `{"workload":"synth","platform":"cray"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
	if code := errorCode(t, b); code != "unknown_platform" {
		t.Errorf("error code %q, want unknown_platform", code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status %d, want 405", resp.StatusCode)
	}
	if code := errorCode(t, b); code != "method_not_allowed" {
		t.Errorf("error code %q, want method_not_allowed", code)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q, want POST", allow)
	}
}

func TestAnalyzeServesAndWarms(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	resp, b := postJSON(t, ts.URL+"/v1/analyze", `{"workload":"synth"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", resp.StatusCode, b)
	}
	var cold AnalyzeResponse
	if err := json.Unmarshal(b, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Result.Workload != "synth" || cold.Result.MaxSpeedup <= 0 {
		t.Errorf("cold result implausible: %+v", cold.Result)
	}
	if cold.Result.AnalysisFromCache {
		t.Error("cold request claims a cache hit")
	}
	if cold.Counters.Executions != 1 {
		t.Errorf("cold executions = %d, want 1", cold.Counters.Executions)
	}

	base := srv.Work()
	resp, b = postJSON(t, ts.URL+"/v1/analyze", `{"workload":"synth"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d: %s", resp.StatusCode, b)
	}
	var warm AnalyzeResponse
	if err := json.Unmarshal(b, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Result.AnalysisFromCache {
		t.Error("warm request not served from the flight group")
	}
	if warm.Result.MaxSpeedup != cold.Result.MaxSpeedup {
		t.Errorf("warm max speedup %v != cold %v", warm.Result.MaxSpeedup, cold.Result.MaxSpeedup)
	}
	if got := srv.Work().Kernels - base.Kernels; got != 0 {
		t.Errorf("warm request executed %d kernels, want 0", got)
	}
	if got := srv.Work().SweepEvaluations - base.SweepEvaluations; got != 0 {
		t.Errorf("warm request ran %d placement passes, want 0", got)
	}
}

// TestWarmGroupByAnalyzeIsACacheHit: a GroupBy workload (kwave) keys
// its analysis over its capture's sites, so its warm request probes
// only after resolving the snapshot. It is still served from the
// server's flight group as a cache hit: analysis_from_cache=true, zero
// executions, zero derivations, zero placement passes.
func TestWarmGroupByAnalyzeIsACacheHit(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	analyze := func() AnalyzeResponse {
		t.Helper()
		resp, b := postJSON(t, ts.URL+"/v1/analyze", `{"workload":"kwave"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		var out AnalyzeResponse
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	cold := analyze()
	if cold.Result.AnalysisFromCache {
		t.Error("cold request claims an analysis hit")
	}
	base := srv.Work()
	warm := analyze()
	if !warm.Result.AnalysisFromCache || !warm.Result.SnapshotFromCache {
		t.Errorf("warm request: analysis_from_cache=%v snapshot_from_cache=%v, want true/true",
			warm.Result.AnalysisFromCache, warm.Result.SnapshotFromCache)
	}
	if warm.Counters.Executions != 0 || warm.Counters.Derived != 0 || warm.Counters.AnalysisHits != 1 {
		t.Errorf("warm counters %+v, want 0 executions, 0 derived, 1 analysis hit", warm.Counters)
	}
	if d := srv.Work().Kernels - base.Kernels; d != 0 {
		t.Errorf("warm request executed %d kernels, want 0", d)
	}
	if d := srv.Work().Derived - base.Derived; d != 0 {
		t.Errorf("warm request derived %d snapshots, want 0", d)
	}
	if d := srv.Work().SweepEvaluations - base.SweepEvaluations; d != 0 {
		t.Errorf("warm request ran %d placement passes, want 0", d)
	}
	if warm.Result.MaxSpeedup != cold.Result.MaxSpeedup {
		t.Errorf("warm max speedup %v != cold %v", warm.Result.MaxSpeedup, cold.Result.MaxSpeedup)
	}
}

// TestConcurrentIdenticalRequestsCoalesce is the handler-level
// acceptance criterion: K identical requests hitting a cold daemon
// together execute exactly one kernel and one probe+sweep, whatever the
// interleaving — overlapping requests coalesce on the in-flight
// computation, stragglers on the retained entry.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	const k = 8

	responses := make([]AnalyzeResponse, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
				strings.NewReader(`{"workload":"synth","seed":424242}`))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			errs[i] = json.Unmarshal(b, &responses[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < k; i++ {
		if responses[i].Result.MaxSpeedup != responses[0].Result.MaxSpeedup {
			t.Errorf("request %d speedup %v != request 0 %v",
				i, responses[i].Result.MaxSpeedup, responses[0].Result.MaxSpeedup)
		}
	}
	if got := srv.Work().Kernels; got != 1 {
		t.Errorf("%d identical requests executed %d kernels, want 1", k, got)
	}
	if got := srv.Work().SweepEvaluations; got != 2 {
		t.Errorf("%d identical requests ran %d placement passes, want 2 (one probe + one sweep)", k, got)
	}
}

func TestCampaignEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postJSON(t, ts.URL+"/v1/campaign",
		`{"workloads":["synth"],"platforms":["xeonmax","dual"],"seeds":[5,6]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var out CampaignResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != 4 {
		t.Fatalf("got %d cells, want 4 (1 workload × 2 platforms × 2 seeds)", len(out.Cells))
	}
	for _, c := range out.Cells {
		if c.Error != "" {
			t.Errorf("cell %s/%s/%s failed: %s", c.Workload, c.Platform, c.Variant, c.Error)
		}
		if c.MaxSpeedup <= 0 {
			t.Errorf("cell %s/%s/%s has no speedup", c.Workload, c.Platform, c.Variant)
		}
	}
}

// TestCampaignEndpointSeedCount: the seed_count shorthand expands to
// seeds 1..N, the sweep resolves with one kernel (a seed-invariant
// workload derives the other seeds), and the response carries the
// cross-seed provenance in both the counters and the cells.
func TestCampaignEndpointSeedCount(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postJSON(t, ts.URL+"/v1/campaign",
		`{"workloads":["synth"],"seed_count":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var out CampaignResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != 4 {
		t.Fatalf("got %d cells, want 4 (seed_count=4)", len(out.Cells))
	}
	for i, c := range out.Cells {
		if want := fmt.Sprintf("seed%d", i+1); c.Variant != want {
			t.Errorf("cell %d variant %q, want %q", i, c.Variant, want)
		}
		if c.Error != "" {
			t.Errorf("cell %s failed: %s", c.Variant, c.Error)
		}
		if c.SeedDerived && !c.Derived {
			t.Errorf("cell %s: seed_derived without derived", c.Variant)
		}
	}
	if out.Counters.Executions != 1 || out.Counters.Derived != 3 || out.Counters.SeedDerived != 3 {
		t.Errorf("counters executions=%d derived=%d seed_derived=%d, want 1/3/3",
			out.Counters.Executions, out.Counters.Derived, out.Counters.SeedDerived)
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out WorkloadsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]WorkloadInfo)
	for _, w := range out.Workloads {
		byName[w.Name] = w
	}
	if w, ok := byName["npb.mg"]; !ok || !w.Benchmark {
		t.Errorf("npb.mg missing or not marked benchmark: %+v", byName["npb.mg"])
	}
	if w, ok := byName["kwave"]; !ok || !w.Grouped {
		t.Errorf("kwave missing or not marked grouped: %+v", byName["kwave"])
	}
	if _, ok := byName["synth"]; !ok {
		t.Error("registry workload synth missing")
	}
	if len(out.Platforms) == 0 {
		t.Error("no platforms listed")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d, want 200", resp.StatusCode)
	}
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (\+Inf|-?[0-9.e+-]+)$`)

// TestMetricsParsesAsPrometheusText drives a request through the
// daemon, scrapes /metrics and validates the exposition line by line:
// every sample parses, and every sample's family was declared by a
// preceding HELP and TYPE header.
func TestMetricsParsesAsPrometheusText(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})
	if resp, b := postJSON(t, ts.URL+"/v1/analyze", `{"workload":"synth"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d: %s", resp.StatusCode, b)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	helped := make(map[string]bool)
	typed := make(map[string]bool)
	samples := make(map[string]int)
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			helped[strings.Fields(line)[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			typed[f[2]] = true
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("unknown TYPE %q in %q", f[3], line)
			}
		default:
			if !promLine.MatchString(line) {
				t.Errorf("unparseable sample line %q", line)
				continue
			}
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if !helped[family] && !helped[name] {
				t.Errorf("sample %q has no HELP header", name)
			}
			if !typed[family] && !typed[name] {
				t.Errorf("sample %q has no TYPE header", name)
			}
			samples[name]++
		}
	}
	for _, want := range []string{
		"hmptd_requests_total",
		"hmptd_request_seconds_bucket",
		"hmptd_stage_seconds_bucket",
		"hmptd_kernel_executions_total",
		"hmptd_sample_passes_total",
		"hmptd_sweep_evaluations_total",
		"hmptd_derived_snapshots_total",
		"hmptd_coalesced_requests_total",
		"hmptd_queue_depth",
		"hmptd_requests_inflight",
		"hmptd_snapshot_cache_ops_total",
		"hmptd_analysis_cache_ops_total",
		"hmptd_campaign_cells_total",
		"hmptd_captures_total",
		"hmptd_request_cancellations_total",
		"hmptd_request_timeouts_total",
		"hmptd_http_panics_total",
		"hmptd_recovered_panics_total",
		"hmptd_faults_injected_total",
		"hmptd_snapshot_publish_total",
		"hmptd_analysis_publish_total",
		"hmptd_cache_degraded",
		"hmptd_draining",
	} {
		if samples[want] == 0 {
			t.Errorf("metric %s missing from exposition", want)
		}
	}
}

// TestTwoDaemonsShareCacheTree is the regression for the single-flight
// extraction: two daemon instances (separate flight groups) sharing one
// on-disk cache tree run concurrently without corrupting it — the atomic
// fsatomic publish keeps every entry whole — and a third daemon over the
// same tree serves fully warm.
func TestTwoDaemonsShareCacheTree(t *testing.T) {
	cacheDir := t.TempDir()
	anDir := filepath.Join(cacheDir, "analyses")
	cfg := Config{CacheDir: cacheDir, AnalysisCacheDir: anDir}
	_, ts1 := newTestServer(t, cfg)
	_, ts2 := newTestServer(t, cfg)

	const perDaemon = 4
	body := `{"workload":"synth","seed":777}`
	var wg sync.WaitGroup
	errs := make([]error, 2*perDaemon)
	for i := 0; i < perDaemon; i++ {
		for j, url := range []string{ts1.URL, ts2.URL} {
			idx := i*2 + j
			url := url
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(url+"/v1/analyze", "application/json", strings.NewReader(body))
				if err != nil {
					errs[idx] = err
					return
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				if resp.StatusCode != http.StatusOK {
					errs[idx] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
				}
			}()
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	// The shared tree holds exactly one snapshot and one analysis —
	// no torn or stray temp files from the concurrent publishes.
	snaps, err := filepath.Glob(filepath.Join(cacheDir, "snapshots", "*", "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Errorf("shared cache holds %d snapshots, want 1: %v", len(snaps), snaps)
	}
	anls, err := filepath.Glob(filepath.Join(anDir, "*.anl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(anls) != 1 {
		t.Errorf("shared cache holds %d analyses, want 1: %v", len(anls), anls)
	}
	err = filepath.WalkDir(cacheDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if ext := filepath.Ext(path); ext != ".snap" && ext != ".anl" {
			t.Errorf("stray file %q in shared cache tree", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A third daemon over the same tree is warm from scrape one: zero
	// kernels, zero sampling, zero placement, zero derivations.
	s3, ts3 := newTestServer(t, cfg)
	resp, b := postJSON(t, ts3.URL+"/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm daemon status %d: %s", resp.StatusCode, b)
	}
	var out AnalyzeResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Result.AnalysisFromCache {
		t.Error("third daemon's request not served from the shared analysis cache")
	}
	work := s3.Work()
	if d := work.Kernels; d != 0 {
		t.Errorf("warm daemon executed %d kernels, want 0", d)
	}
	if d := work.SamplePasses; d != 0 {
		t.Errorf("warm daemon ran %d sampling passes, want 0", d)
	}
	if d := work.SweepEvaluations; d != 0 {
		t.Errorf("warm daemon ran %d placement passes, want 0", d)
	}
	if d := work.Derived; d != 0 {
		t.Errorf("warm daemon derived %d snapshots, want 0", d)
	}
}

// TestLoadgenAgainstWarmDaemon exercises the closed-loop generator
// end-to-end and sanity-checks its report arithmetic.
func TestLoadgenAgainstWarmDaemon(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Warm the daemon so the measured burst is cache-resident.
	if resp, b := postJSON(t, ts.URL+"/v1/analyze", `{"workload":"synth"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", resp.StatusCode, b)
	}
	rep, err := RunLoad(LoadConfig{
		BaseURL:   ts.URL,
		Clients:   3,
		Requests:  12,
		Workloads: []string{"synth"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("loadgen saw %d errors (first: %s)", rep.Errors, rep.FirstError)
	}
	if rep.Requests != 12 || rep.Clients != 3 {
		t.Errorf("report counts %d/%d, want 12/3", rep.Requests, rep.Clients)
	}
	if rep.Throughput <= 0 || rep.ElapsedSeconds <= 0 {
		t.Errorf("implausible throughput %v over %vs", rep.Throughput, rep.ElapsedSeconds)
	}
	if rep.P50Ms <= 0 || rep.P50Ms > rep.P95Ms || rep.P95Ms > rep.P99Ms || rep.P99Ms > rep.MaxMs {
		t.Errorf("percentiles not monotone: p50=%v p95=%v p99=%v max=%v",
			rep.P50Ms, rep.P95Ms, rep.P99Ms, rep.MaxMs)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rep); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"req_per_sec", "p50_ms", "p95_ms", "p99_ms"} {
		if !strings.Contains(buf.String(), field) {
			t.Errorf("report JSON missing field %q", field)
		}
	}
}

func TestLoadgenCountsErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rep, err := RunLoad(LoadConfig{
		BaseURL:   ts.URL,
		Clients:   2,
		Requests:  4,
		Workloads: []string{"no-such-workload"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 4 {
		t.Errorf("errors = %d, want 4", rep.Errors)
	}
	if rep.FirstError == "" {
		t.Error("no representative error recorded")
	}
}
