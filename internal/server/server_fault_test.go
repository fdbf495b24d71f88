package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hmpt/internal/faultfs"
)

func TestReadyzHealthyThenDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthy /readyz status %d, want 200: %s", resp.StatusCode, b)
	}
	var st ReadyStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "ok" || st.Draining {
		t.Errorf("healthy status = %+v, want ok/not-draining", st)
	}

	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz status %d, want 503: %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "draining" || !st.Draining {
		t.Errorf("draining status = %+v, want draining", st)
	}
	// Liveness is unaffected: the process is still up.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz during drain status %d, want 200", resp.StatusCode)
	}
}

func TestRequestTooLargeReturns413(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	big := `{"workload":"` + strings.Repeat("x", 1<<20) + `"}`
	resp, b := postJSON(t, ts.URL+"/v1/analyze", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", resp.StatusCode)
	}
	if code := errorCode(t, b); code != "request_too_large" {
		t.Errorf("error code %q, want request_too_large", code)
	}
}

func TestMetricsMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/metrics", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
		t.Errorf("Allow = %q, want GET", allow)
	}
	if code := errorCode(t, b); code != "method_not_allowed" {
		t.Errorf("error code %q, want method_not_allowed", code)
	}
}

func TestCancelledRequestReturns499(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze",
		strings.NewReader(`{"workload":"synth","seed":909}`)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Errorf("status %d, want 499", rec.Code)
	}
	if code := errorCode(t, rec.Body.Bytes()); code != "request_cancelled" {
		t.Errorf("error code %q, want request_cancelled", code)
	}
	if got := s.met.cancellations.Value(); got != 1 {
		t.Errorf("cancellations counter = %d, want 1", got)
	}
}

// TestDeadlineExceededReturns504 pins the timeout path deterministically
// by filling the single run slot so the request's deadline expires in
// the queue.
func TestDeadlineExceededReturns504(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	s.sem <- struct{}{} // occupy the only slot
	defer func() { <-s.sem }()
	resp, b := postJSON(t, ts.URL+"/v1/analyze", `{"workload":"synth","timeout_ms":40}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504: %s", resp.StatusCode, b)
	}
	if code := errorCode(t, b); code != "deadline_exceeded" {
		t.Errorf("error code %q, want deadline_exceeded", code)
	}
	if got := s.met.timeouts.Value(); got != 1 {
		t.Errorf("timeouts counter = %d, want 1", got)
	}
}

func TestPanicMiddlewareRecoversInto500(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("poisoned handler")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", rec.Code)
	}
	if code := errorCode(t, rec.Body.Bytes()); code != "internal_panic" {
		t.Errorf("error code %q, want internal_panic", code)
	}
	if got := s.met.httpPanics.Value(); got != 1 {
		t.Errorf("httpPanics counter = %d, want 1", got)
	}
}

// waitUntil polls cond up to 10s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before deadline")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// tempFiles returns fsatomic staging leftovers under dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	var stray []string
	for _, pattern := range []string{"*.tmp*", ".*.tmp*"} {
		m, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		stray = append(stray, m...)
	}
	return stray
}

// TestCancelledCampaignStopsColdWork is the HTTP acceptance criterion:
// a cancelled POST /v1/campaign stops cold work mid-matrix (strictly
// fewer kernel executions and sweep evaluations than the full matrix),
// returns the structured 499, leaves no staging temp files in the cache
// tree, and an identical follow-up request completes.
func TestCancelledCampaignStopsColdWork(t *testing.T) {
	cacheDir := t.TempDir()
	anDir := filepath.Join(cacheDir, "analyses")
	s, err := New(Config{CacheDir: cacheDir, AnalysisCacheDir: anDir, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	// chase is the seed-dependent derivation opt-out, so its eight seeds
	// really are eight distinct kernel executions — a seed-invariant
	// workload would execute one kernel and derive the rest, leaving the
	// cancellation nothing to save.
	body := `{"workloads":["chase"],"seeds":[9001,9002,9003,9004,9005,9006,9007,9008],"timeout_ms":0}`

	ctx, cancel := context.WithCancel(context.Background())
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest(http.MethodPost, "/v1/campaign", strings.NewReader(body)).WithContext(ctx)
		req.Header.Set("Content-Type", "application/json")
		s.Handler().ServeHTTP(rec, req)
	}()
	// Cancel as soon as the first cold kernel is underway — mid-matrix,
	// with seven more cells' worth of work still unstarted.
	waitUntil(t, func() bool { return s.Work().Kernels > 0 })
	cancel()
	<-done
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("cancelled campaign status %d, want 499: %s", rec.Code, rec.Body.String())
	}
	if code := errorCode(t, rec.Body.Bytes()); code != "request_cancelled" {
		t.Errorf("error code %q, want request_cancelled", code)
	}
	// Let the detached in-flight computation wind down, then check the
	// cache tree: no staging temp files survive a cancellation.
	waitUntil(t, func() bool { return s.flights.InFlight() == 0 })
	cancelledKernels := s.Work().Kernels
	cancelledSweeps := s.Work().SweepEvaluations
	for _, dir := range []string{cacheDir, anDir} {
		if stray := tempFiles(t, dir); len(stray) > 0 {
			t.Errorf("staging temp files left in %s after cancellation: %v", dir, stray)
		}
	}

	// The identical request completes, and its work quantifies what the
	// full matrix needs: the cancelled run must have done strictly less.
	req2 := httptest.NewRequest(http.MethodPost, "/v1/campaign", strings.NewReader(body))
	req2.Header.Set("Content-Type", "application/json")
	rec2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec2, req2)
	if rec2.Code != http.StatusOK {
		t.Fatalf("retry status %d: %s", rec2.Code, rec2.Body.String())
	}
	var out CampaignResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != 8 {
		t.Fatalf("retry served %d cells, want 8", len(out.Cells))
	}
	for _, c := range out.Cells {
		if c.Error != "" {
			t.Errorf("retry cell %s/%s/%s failed: %s", c.Workload, c.Platform, c.Variant, c.Error)
		}
	}
	fullKernels := s.Work().Kernels
	fullSweeps := s.Work().SweepEvaluations
	if cancelledKernels >= fullKernels {
		t.Errorf("cancelled run executed %d kernels, full matrix needed %d — cancellation saved nothing",
			cancelledKernels, fullKernels)
	}
	if cancelledSweeps >= fullSweeps {
		t.Errorf("cancelled run ran %d sweeps, full matrix needed %d — cancellation saved nothing",
			cancelledSweeps, fullSweeps)
	}
}

// TestWarmServingSurvivesFaultStorm is the chaos harness: a warmed
// daemon keeps serving 200s with all zero-work counters flat while a
// seeded fault storm breaks every cache write, the degraded-mode
// transition is observable (readyz, gauge), and the cache recovers via
// re-probe once the storm passes.
func TestWarmServingSurvivesFaultStorm(t *testing.T) {
	cacheDir := t.TempDir()
	anDir := filepath.Join(cacheDir, "analyses")
	inj := faultfs.NewInjector(nil, faultfs.Config{Seed: 7, WriteEIO: 1, MaxFaults: 3})
	inj.SetArmed(false) // boot and warm-up must not consume the schedule
	s, ts := newTestServer(t, Config{
		CacheDir:         cacheDir,
		AnalysisCacheDir: anDir,
		Injector:         inj,
		CacheReprobe:     50 * time.Millisecond,
	})

	warmBody := `{"workload":"synth","seed":31337}`
	if resp, b := postJSON(t, ts.URL+"/v1/analyze", warmBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", resp.StatusCode, b)
	}

	// Storm: every cache write faults (EIO rate 1) until the 3-fault
	// budget runs dry. One cold request's snapshot store burns the whole
	// budget (initial try + 2 retries) and demotes the snapshot cache.
	inj.SetArmed(true)
	if resp, b := postJSON(t, ts.URL+"/v1/analyze", `{"workload":"synth","seed":41}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold request during fault storm status %d, want 200 (compute-through): %s", resp.StatusCode, b)
	}
	if !s.cache.Degraded() {
		t.Fatal("snapshot cache not degraded after exhausting publish retries under EIO storm")
	}
	if got := inj.Stats().EIO; got != 3 {
		t.Errorf("injected EIO count = %d, want 3 (deterministic schedule)", got)
	}

	// Warm traffic through the degraded daemon: all 200, zero work.
	base := s.Work()
	for i := 0; i < 4; i++ {
		resp, b := postJSON(t, ts.URL+"/v1/analyze", warmBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm request %d during degraded mode: status %d: %s", i, resp.StatusCode, b)
		}
		var out AnalyzeResponse
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Result.AnalysisFromCache {
			t.Errorf("warm request %d not served from cache during degraded mode", i)
		}
	}
	work := s.Work()
	if d := work.Kernels - base.Kernels; d != 0 {
		t.Errorf("warm serving under fault storm executed %d kernels, want 0", d)
	}
	if d := work.SamplePasses - base.SamplePasses; d != 0 {
		t.Errorf("warm serving under fault storm ran %d sampling passes, want 0", d)
	}
	if d := work.SweepEvaluations - base.SweepEvaluations; d != 0 {
		t.Errorf("warm serving under fault storm ran %d placement passes, want 0", d)
	}
	if d := work.Derived - base.Derived; d != 0 {
		t.Errorf("warm serving under fault storm derived %d snapshots, want 0", d)
	}

	// The degradation is observable: /readyz is 503 and the gauge is 1.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("degraded /readyz status %d, want 503: %s", resp.StatusCode, b)
	}
	var st ReadyStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "degraded" || !st.SnapshotCacheDegraded {
		t.Errorf("degraded readyz = %+v, want degraded snapshot cache", st)
	}
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		mb, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(mb)
	}
	m := scrape()
	for _, want := range []string{
		`hmptd_cache_degraded{cache="snapshot"} 1`,
		`hmptd_faults_injected_total{kind="eio"} 3`,
		`hmptd_snapshot_publish_total{event="demotion"} 1`,
		`hmptd_snapshot_publish_total{event="retry"} 2`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q during fault storm", want)
		}
	}

	// Storm over (budget exhausted): after the re-probe window a cold
	// request's store probes the disk, succeeds, and clears degraded.
	time.Sleep(70 * time.Millisecond)
	if resp, b := postJSON(t, ts.URL+"/v1/analyze", `{"workload":"synth","seed":43}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-storm cold request status %d: %s", resp.StatusCode, b)
	}
	if s.cache.Degraded() {
		t.Error("snapshot cache still degraded after successful re-probe")
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("recovered /readyz status %d, want 200: %s", resp.StatusCode, b)
	}
	m = scrape()
	for _, want := range []string{
		`hmptd_cache_degraded{cache="snapshot"} 0`,
		`hmptd_snapshot_publish_total{event="recovery"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q after recovery", want)
		}
	}
}

func TestLoadgenSeparatesNon2xxAndTimeouts(t *testing.T) {
	// Non-2xx: every request names an unknown workload.
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
	if rep.Non2xx != 4 || rep.Timeouts != 0 || rep.Errors != 4 {
		t.Errorf("non2xx=%d timeouts=%d errors=%d, want 4/0/4", rep.Non2xx, rep.Timeouts, rep.Errors)
	}
	if rep.ErrorRate != 1 || rep.TimeoutRate != 0 {
		t.Errorf("error_rate=%v timeout_rate=%v, want 1/0", rep.ErrorRate, rep.TimeoutRate)
	}

	// Timeouts: a sloth server that outlives the client deadline.
	sloth := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(5 * time.Second):
		case <-r.Context().Done():
		}
	}))
	defer sloth.Close()
	rep, err = RunLoad(LoadConfig{
		BaseURL:   sloth.URL,
		Clients:   2,
		Requests:  4,
		Workloads: []string{"synth"},
		Timeout:   30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeouts != 4 || rep.Non2xx != 0 || rep.Errors != 4 {
		t.Errorf("timeouts=%d non2xx=%d errors=%d, want 4/0/4", rep.Timeouts, rep.Non2xx, rep.Errors)
	}
	if rep.TimeoutRate != 1 {
		t.Errorf("timeout_rate=%v, want 1", rep.TimeoutRate)
	}
	var buf strings.Builder
	if err := json.NewEncoder(&buf).Encode(rep); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"non_2xx", "timeouts", "error_rate", "timeout_rate"} {
		if !strings.Contains(buf.String(), fmt.Sprintf("%q", field)) {
			t.Errorf("report JSON missing field %q", field)
		}
	}
}
