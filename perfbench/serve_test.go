package main

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"hmpt/internal/server"
)

func sequence(seed uint64, c, n int) []request {
	warm, combos := warmKeys(seed), serveCombos()
	out := make([]request, n)
	for k := range out {
		out[k] = requestAt(seed, warm, combos, c, k)
	}
	return out
}

func TestServeSequenceIsPureFunctionOfSeed(t *testing.T) {
	const n = 5000
	a, b := sequence(7, 0, n), sequence(7, 0, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different sequences")
	}
	if reflect.DeepEqual(a, sequence(8, 0, n)) {
		t.Error("seeds 7 and 8 produced the same sequence")
	}
	if reflect.DeepEqual(a, sequence(7, 1, n)) {
		t.Error("clients 0 and 1 produced the same sequence")
	}
}

func TestServeSequenceMix(t *testing.T) {
	const seed, n = 3, 6000
	warm := make(map[request]bool)
	for _, k := range warmKeys(seed) {
		warm[k] = true
		if k.seed < 1 || k.seed > 60 {
			t.Errorf("warm key %s outside the verified seed range", k.key())
		}
	}
	if len(warm) != 56 {
		t.Fatalf("%d distinct warm keys, want 56", len(warm))
	}
	seen := make(map[string]bool)
	var kinds [3]int
	for c := 0; c < clients; c++ {
		for k, r := range sequence(seed, c, n) {
			kinds[r.kind]++
			switch r.kind {
			case scrapeReq:
				if k%scrapeEvery != scrapeEvery/2 {
					t.Errorf("scrape at %d", k)
				}
			case missReq:
				if k%missEvery != missEvery-1 {
					t.Errorf("miss at %d", k)
				}
				if seen[r.key()] || r.seed <= 60 {
					t.Errorf("miss %s is not an unseen seed", r.key())
				}
				seen[r.key()] = true
			case warmReq:
				if !warm[r] {
					t.Errorf("warm request %s is not a filled key", r.key())
				}
			}
		}
	}
	if want := clients * n / missEvery; kinds[missReq] != want {
		t.Errorf("%d misses, want %d", kinds[missReq], want)
	}
	for c := 0; c < clients; c++ {
		misses := 0
		for _, r := range sequence(seed, c, missEvery*(missesPerClient+10)) {
			if r.kind == missReq {
				misses++
			}
		}
		if misses != missesPerClient {
			t.Errorf("client %d sent %d misses, want %d", c, misses, missesPerClient)
		}
	}
	if want := clients * n / scrapeEvery; kinds[scrapeReq] != want {
		t.Errorf("%d scrapes, want %d", kinds[scrapeReq], want)
	}
}

// TestWarmProvenance holds the warm-key check to its one exception: a
// snapshot served from cache with a freshly computed analysis passes
// for a GroupBy workload (kwave), whose analysis the retained flight
// returns, and fails for every other workload.
func TestWarmProvenance(t *testing.T) {
	var groupBy, plain request
	for _, c := range serveCombos() {
		if c.groupBy {
			groupBy = c
		} else {
			plain = c
		}
	}
	if groupBy.workload != "kwave" || plain.workload == "" {
		t.Fatalf("GroupBy combo %q, plain combo %q", groupBy.workload, plain.workload)
	}
	for _, c := range []struct {
		r          request
		fromAn, ok bool
	}{
		{groupBy, true, true}, {groupBy, false, true},
		{plain, true, true}, {plain, false, false},
	} {
		cell := server.CellResult{Workload: c.r.workload, Platform: c.r.platform, AnalysisFromCache: c.fromAn, SnapshotFromCache: true}
		raw, err := json.Marshal(server.AnalyzeResponse{Result: cell})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := normalized(cell)
		fills := map[string][]byte{c.r.key(): want}
		err = checkResponse(&clientRun{}, c.r, http.StatusOK, raw, fills, map[string][]byte{}, false)
		if (err == nil) != c.ok {
			t.Errorf("%s analysis_from_cache=%v: err=%v, want ok=%v", c.r.workload, c.fromAn, err, c.ok)
		}
	}
}
