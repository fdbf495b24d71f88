package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hmpt/internal/campaign"
)

// TestCampaignMatrixTooLarge: a campaign body asking for more cells
// than maxMatrixCells is refused with 400 matrix_too_large before
// anything is sized from it — seed_count 2^40 would otherwise ask for
// an 8 TB seed list.
func TestCampaignMatrixTooLarge(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{})
	seeds := strings.Repeat("1,", 2048) + "1" // 2049 seeds × 2 platforms
	for _, body := range []string{
		`{"seed_count": 1099511627776}`,
		`{"workloads":["synth"],"platforms":["xeonmax","dual"],"seeds":[` + seeds + `]}`,
		`{"seed_count": 1000}`, // 7 Table I workloads × 1000 seeds
	} {
		resp, b := postJSON(t, ts.URL+"/v1/campaign", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%.60s: status %d, want 400: %s", body, resp.StatusCode, b)
			continue
		}
		if code := errorCode(t, b); code != "matrix_too_large" {
			t.Errorf("%.60s: error code %q, want matrix_too_large", body, code)
		}
	}
}

// TestHugeTimeoutRefused: a timeout_ms whose duration would overflow
// is refused with 400 bad_timeout on both run endpoints, before the
// run starts — it used to wrap to a negative deadline and come back 504
// deadline_exceeded — while the largest representable one runs.
func TestHugeTimeoutRefused(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/v1/analyze", `{"workload":"synth","timeout_ms":18446744073710}`, http.StatusBadRequest},
		{"/v1/campaign", `{"workloads":["synth"],"timeout_ms":18446744073710}`, http.StatusBadRequest},
		{"/v1/analyze", `{"workload":"synth","timeout_ms":9223372036855}`, http.StatusBadRequest},
		{"/v1/analyze", `{"workload":"synth","timeout_ms":9223372036854}`, http.StatusOK},
		{"/v1/campaign", `{"workloads":["synth"],"timeout_ms":9223372036854}`, http.StatusOK},
	} {
		resp, b := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s: status %d, want %d: %s", tc.path, tc.body, resp.StatusCode, tc.status, b)
			continue
		}
		if tc.status == http.StatusBadRequest {
			if code := errorCode(t, b); code != "bad_timeout" {
				t.Errorf("%s %s: error code %q, want bad_timeout", tc.path, tc.body, code)
			}
		}
	}
}

// TestMatrixCapBoundary: a matrix of exactly maxMatrixCells cells
// resolves, one cell more is refused; seed_count and seeds count alike.
func TestMatrixCapBoundary(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		req  CampaignRequest
		want int // cells, or -1 for a refusal
	}{
		{CampaignRequest{Workloads: []string{"synth"}, SeedCount: maxMatrixCells}, maxMatrixCells},
		{CampaignRequest{Workloads: []string{"synth"}, SeedCount: maxMatrixCells + 1}, -1},
		{CampaignRequest{Workloads: []string{"synth"}, Platforms: []string{"xeonmax", "dual"}, Seeds: make([]uint64, maxMatrixCells/2)}, maxMatrixCells},
		{CampaignRequest{Workloads: []string{"synth"}, Platforms: []string{"xeonmax", "dual"}, Seeds: make([]uint64, maxMatrixCells/2+1)}, -1},
		{CampaignRequest{Workloads: []string{"synth"}, SeedCount: -5}, 1},
	} {
		m, rerr := tc.req.matrix()
		switch {
		case tc.want < 0 && (rerr == nil || rerr.code != "matrix_too_large"):
			t.Errorf("%d workloads × %d platforms × %d/%d seeds: err %v, want matrix_too_large",
				len(tc.req.Workloads), len(tc.req.Platforms), len(tc.req.Seeds), tc.req.SeedCount, rerr)
		case tc.want >= 0 && rerr != nil:
			t.Errorf("seed_count %d / %d seeds: refused (%s), want %d cells", tc.req.SeedCount, len(tc.req.Seeds), rerr.msg, tc.want)
		case tc.want >= 0 && matrixCells(m) != tc.want:
			t.Errorf("seed_count %d / %d seeds: %d cells, want %d", tc.req.SeedCount, len(tc.req.Seeds),
				matrixCells(m), tc.want)
		}
	}
}

// matrixCells is the number of cells a matrix enumerates.
func matrixCells(m campaign.Matrix) int {
	return len(m.Workloads) * len(m.Platforms) * max(len(m.Variants), 1)
}

// FuzzCampaignRequest drives arbitrary bytes through the campaign
// endpoint's decode and matrix building. Neither may panic; a resolved
// matrix stays within maxMatrixCells; the bytes allocated stay within
// a fixed budget plus a multiple of the input length; and a decoded
// request survives a marshal/decode round trip unchanged; an accepted
// request's timeout_ms converts to a duration without overflowing.
func FuzzCampaignRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"workloads":["synth"],"seeds":[1,2,3]}`,
		`{"workloads":["synth"],"seed_count":4096}`,
		`{"seed_count":1099511627776}`,
		`{"workloads":["npb.bt","kwave"],"platforms":["dual","xeonmax"],"full":true,"runs":2,"iterations":3,"timeout_ms":5}`,
		`{"workloads":["synth"],"platforms":["cray"]}`,
		`{"workloads":["no-such"]}`,
		`{"seeds":[18446744073709551615],"seed_count":-1}`,
		`{"workloads":["synth"],"timeout_ms":18446744073710}`,
		`{"workloads":["synth"],"timeout_ms":9223372036854}`,
		`{"unknown":1}`,
		`[`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	decode := func(body []byte, req *CampaignRequest) bool {
		r := httptest.NewRequest(http.MethodPost, "/v1/campaign", bytes.NewReader(body))
		return s.decode(httptest.NewRecorder(), r, req)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var req CampaignRequest
		ok := decode(body, &req)
		var rerr *requestError
		var cells int
		if ok {
			m, e := req.matrix()
			rerr, cells = e, matrixCells(m)
		}
		runtime.ReadMemStats(&after)
		if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(8<<20+4096*len(body)); got > budget {
			t.Fatalf("decoding and resolving %d bytes allocated %d bytes, budget %d", len(body), got, budget)
		}
		if !ok {
			return
		}
		if rerr == nil && cells > maxMatrixCells {
			t.Fatalf("resolved a %d-cell matrix, cap %d", cells, maxMatrixCells)
		}
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; rerr == nil && req.TimeoutMs > 0 &&
			(d <= 0 || d/time.Millisecond != time.Duration(req.TimeoutMs)) {
			t.Fatalf("accepted timeout_ms %d, whose duration overflows to %v", req.TimeoutMs, d)
		}
		raw, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		var again CampaignRequest
		if !decode(raw, &again) {
			t.Fatalf("re-marshalled request %s does not decode", raw)
		}
		if !reflect.DeepEqual(normalizeRequest(req), normalizeRequest(again)) {
			t.Fatalf("round trip changed the request: %+v -> %s -> %+v", req, raw, again)
		}
	})
}

// normalizeRequest maps the empty lists JSON can spell two ways ([] and
// absent) to nil.
func normalizeRequest(r CampaignRequest) CampaignRequest {
	if len(r.Workloads) == 0 {
		r.Workloads = nil
	}
	if len(r.Platforms) == 0 {
		r.Platforms = nil
	}
	if len(r.Seeds) == 0 {
		r.Seeds = nil
	}
	return r
}
