package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"
)

// serveAnalyze answers one analyze request through the handler.
func serveAnalyze(t *testing.T, h http.Handler, workload string, seed uint64) AnalyzeResponse {
	t.Helper()
	return serveAnalyzeOn(t, h, workload, "", seed)
}

// serveAnalyzeOn answers one analyze request for a platform preset ("" is
// the default) through the handler.
func serveAnalyzeOn(t *testing.T, h http.Handler, workload, platform string, seed uint64) AnalyzeResponse {
	t.Helper()
	body := fmt.Sprintf(`{"workload":%q,"platform":%q,"seed":%d}`, workload, platform, seed)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s seed %d: status %d: %s", workload, seed, rec.Code, rec.Body.Bytes())
	}
	var out AnalyzeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// scrapeGauges reads every unlabelled sample of one /metrics scrape.
func scrapeGauges(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	vals := make(map[string]float64)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				vals[f[0]] = v
			}
		}
	}
	return vals
}

// liveHeap is the heap still reachable after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// normalizedCell is a response cell with its provenance cleared: the
// analysis itself, which must not depend on how it was served.
func normalizedCell(t *testing.T, c CellResult) string {
	t.Helper()
	c.AnalysisFromCache, c.SnapshotFromCache = false, false
	c.Derived, c.SeedDerived, c.Coalesced = false, false, false
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMemoSoakBoundsHeap runs a working set about five times the memo
// budget through one daemon, three times over, with a small hot set
// asked for between every cold request. The live heap levels off within
// twice the budget above its pre-soak level, the hot set stays
// zero-work, and /metrics shows the evictions and a retained count that
// is the group's list length.
func TestMemoSoakBoundsHeap(t *testing.T) { soakMemo(t, "") }

// TestMemoSoakBothPresetsBoundsHeap is the same soak with every key
// asked for on both platform presets. Each capture entry is retained
// before its second preset replays it, and its replay context then
// memoises a second report and evaluator set: the growth the engine
// recharges the entry for.
func TestMemoSoakBothPresetsBoundsHeap(t *testing.T) { soakMemo(t, "xeonmax", "dual") }

// soakMemo runs the memo soak, asking for every key on each of the
// given platform presets in turn.
func soakMemo(t *testing.T, platforms ...string) {
	const budget = 1 << 20
	dir := t.TempDir()
	srv, err := New(Config{
		CacheDir:         filepath.Join(dir, "snap"),
		AnalysisCacheDir: filepath.Join(dir, "an"),
		MemoBytes:        budget,
		Log:              log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	hot := []uint64{1, 2}
	for _, seed := range hot {
		for _, p := range platforms {
			serveAnalyzeOn(t, h, "npb.bt", p, seed)
		}
	}
	base := liveHeap()
	const cold = 64 // npb.bt keys retain about 75 KiB each
	for round := 0; round < 3; round++ {
		for i := 0; i < cold; i++ {
			for _, p := range platforms {
				serveAnalyzeOn(t, h, "npb.bt", p, uint64(1000+i))
			}
			seed := hot[i%len(hot)]
			for _, p := range platforms {
				r := serveAnalyzeOn(t, h, "npb.bt", p, seed)
				if w := r.Counters.Work; w.Kernels != 0 || w.SweepEvaluations != 0 || w.Derived != 0 || !r.Result.AnalysisFromCache {
					t.Fatalf("round %d: hot seed %d on %q did work: analysis_from_cache=%v work %+v",
						round, seed, p, r.Result.AnalysisFromCache, w)
				}
			}
		}
		grown := liveHeap() - base
		t.Logf("round %d: live heap %+.2f MiB over the pre-soak level, %d entries retained",
			round, float64(grown)/(1<<20), srv.flights.Retained())
		if grown > 2*budget {
			t.Errorf("round %d: live heap grew %.2f MiB, more than twice the %.2f MiB budget",
				round, float64(grown)/(1<<20), float64(budget)/(1<<20))
		}
	}
	vals := scrapeGauges(t, h)
	if vals["hmptd_memo_evictions_total"] <= 0 {
		t.Error("hmptd_memo_evictions_total is zero after a working set past the budget")
	}
	if got, want := vals["hmptd_flights_retained"], float64(srv.flights.Retained()); got != want || got >= float64(2*cold*len(platforms)) {
		t.Errorf("hmptd_flights_retained = %v, want the group's %v, below the %d keys served", got, want, 2*cold*len(platforms))
	}
}

// TestMemoEvictedKeyRecomputedWithoutCaches: a daemon with no cache
// directories has nowhere to fall through to, so an evicted key is
// computed again — and answers exactly what it answered the first time.
func TestMemoEvictedKeyRecomputedWithoutCaches(t *testing.T) {
	srv, err := New(Config{MemoBytes: 64 << 10, Log: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	first := serveAnalyze(t, h, "npb.mg", 1)
	for seed := uint64(2); seed <= 6; seed++ {
		serveAnalyze(t, h, "npb.mg", seed)
	}
	if srv.flights.Evictions() == 0 {
		t.Fatal("nothing was evicted")
	}
	again := serveAnalyze(t, h, "npb.mg", 1)
	if again.Result.AnalysisFromCache || again.Counters.Work.Kernels != 1 || again.Counters.Work.SweepEvaluations == 0 {
		t.Errorf("evicted key: analysis_from_cache=%v work %+v, want a fresh kernel and sweep",
			again.Result.AnalysisFromCache, again.Counters.Work)
	}
	if a, b := normalizedCell(t, first.Result), normalizedCell(t, again.Result); a != b {
		t.Errorf("recomputed cell differs from the first answer:\n%s\n%s", a, b)
	}
}

// TestMemoBudgetNegativeRefused: a negative budget is a configuration
// error, not an unbounded store.
func TestMemoBudgetNegativeRefused(t *testing.T) {
	if _, err := New(Config{MemoBytes: -1}); err == nil {
		t.Error("New accepted a negative memo budget")
	}
}
