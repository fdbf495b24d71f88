package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hmpt/internal/core"
)

// workMetrics reads the ledger-backed counters from one /metrics
// scrape, in core.Work's shape.
func workMetrics(t *testing.T, url string) core.Work {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	vals := make(map[string]int64)
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				vals[f[0]] = int64(v)
			}
		}
	}
	return core.Work{
		Kernels:          vals["hmptd_kernel_executions_total"],
		SamplePasses:     vals["hmptd_sample_passes_total"],
		SweepEvaluations: vals["hmptd_sweep_evaluations_total"],
		Derived:          vals["hmptd_derived_snapshots_total"],
		SeedDerived:      vals["hmptd_seed_derivations_total"],
		Coalesced:        vals["hmptd_coalesced_requests_total"],
		RecoveredPanics:  vals["hmptd_recovered_panics_total"],
	}
}

// TestLedgerServerTotals: concurrent requests each report their own
// run's work, and those reports sum to exactly what /metrics counted
// over the burst — whichever request led or joined each shared flight.
func TestLedgerServerTotals(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{})
	requests := []struct{ path, body string }{
		{"/v1/analyze", `{"workload":"synth","seed":3}`},
		{"/v1/analyze", `{"workload":"synth","seed":3}`},
		{"/v1/analyze", `{"workload":"synth","seed":3}`},
		{"/v1/analyze", `{"workload":"stream","iterations":3}`},
		{"/v1/campaign", `{"workloads":["synth"],"seeds":[3,4,5]}`},
		{"/v1/campaign", `{"workloads":["synth","stream"],"platforms":["xeonmax","dual"]}`},
	}
	before := workMetrics(t, ts.URL)
	works := make([]core.Work, len(requests))
	var wg sync.WaitGroup
	for i, r := range requests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, b := postJSON(t, ts.URL+r.path, r.body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s: status %d: %s", r.path, r.body, resp.StatusCode, b)
				return
			}
			var out struct{ Counters RunCounters }
			if err := json.Unmarshal(b, &out); err != nil {
				t.Error(err)
				return
			}
			works[i] = out.Counters.Work
		}()
	}
	wg.Wait()
	after := workMetrics(t, ts.URL)

	var sum core.Work
	for _, w := range works {
		sum.Kernels += w.Kernels
		sum.SamplePasses += w.SamplePasses
		sum.SweepEvaluations += w.SweepEvaluations
		sum.Derived += w.Derived
		sum.SeedDerived += w.SeedDerived
		sum.Coalesced += w.Coalesced
		sum.RecoveredPanics += w.RecoveredPanics
	}
	delta := core.Work{
		Kernels:          after.Kernels - before.Kernels,
		SamplePasses:     after.SamplePasses - before.SamplePasses,
		SweepEvaluations: after.SweepEvaluations - before.SweepEvaluations,
		Derived:          after.Derived - before.Derived,
		SeedDerived:      after.SeedDerived - before.SeedDerived,
		Coalesced:        after.Coalesced - before.Coalesced,
		RecoveredPanics:  after.RecoveredPanics - before.RecoveredPanics,
	}
	if sum != delta {
		t.Errorf("responses sum to %+v, /metrics deltas are %+v", sum, delta)
	}
	if sum.Kernels == 0 || sum.SweepEvaluations == 0 {
		t.Errorf("burst did no work (%+v); the comparison is vacuous", sum)
	}
}
