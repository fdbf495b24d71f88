package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/experiments"
	"hmpt/internal/faultfs"
	"hmpt/internal/server"
)

// The serve-mix request sequence. Each client sends a fixed sequence
// that is a pure function of the benchmark seed and the client index:
// 49 of every 50 analyze requests ask for one of the warm keys filled
// during set-up, the 50th for a seed no request has asked for before,
// and each client scrapes /metrics once every 2000 requests.
//
// After its first missesPerClient unseen seeds a client's 50th request
// is a warm key too. The server retains every analysis it computes, and
// a miss scans every record of its family, so the heap and the miss
// latency grow with the misses served: with a fixed number of misses
// per run they depend on the program, not on how fast the run went. A
// run waits for every miss; they take about the first 5 seconds of a
// 20-second run on a 2-vCPU VM.
const (
	clients         = 2
	missEvery       = 50
	missesPerClient = 500
	scrapeEvery     = 2000
	warmSeeds       = 4
)

type reqKind int

const (
	warmReq reqKind = iota
	missReq
	scrapeReq
)

// request is one request of the sequence.
type request struct {
	kind     reqKind
	workload string
	platform string
	seed     uint64
	groupBy  bool // the workload folds allocation sites into groups
}

func (r request) key() string { return fmt.Sprintf("%s/%s/%d", r.workload, r.platform, r.seed) }

// serveCombos lists the Table I workloads × platforms in matrix order.
func serveCombos() []request {
	var out []request
	for _, spec := range experiments.Specs() {
		for _, p := range experiments.PlatformNames() {
			out = append(out, request{workload: spec.Name, platform: p, groupBy: spec.Options.GroupBy != nil})
		}
	}
	return out
}

// warmKeys are the keys set-up fills: Table I × platforms × 4 seeds.
func warmKeys(seed uint64) []request {
	var out []request
	for _, c := range serveCombos() {
		for i := 0; i < warmSeeds; i++ {
			c.seed = kernelSeed(seed, i)
			out = append(out, c)
		}
	}
	return out
}

// mix64 is the splitmix64 finaliser: a fixed, well-spread hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// requestAt returns client c's k-th request.
func requestAt(seed uint64, warm, combos []request, c, k int) request {
	h := mix64(mix64(seed) ^ uint64(c)<<32 ^ uint64(k))
	switch {
	case k%scrapeEvery == scrapeEvery/2:
		return request{kind: scrapeReq}
	case k%missEvery == missEvery-1 && k/missEvery < missesPerClient:
		r := combos[h%uint64(len(combos))]
		r.kind = missReq
		// Unique per (client, k) and far above every warm seed.
		r.seed = (seed%1000000+1)*1000000000 + uint64(k/missEvery)*clients + uint64(c)
		return r
	default:
		return warm[h%uint64(len(warm))]
	}
}

// normalized is a response's cell with the provenance fields cleared:
// the analysis itself, which must not depend on how it was served.
func normalized(c server.CellResult) ([]byte, error) {
	c.Variant = ""
	c.AnalysisFromCache, c.SnapshotFromCache = false, false
	c.Derived, c.SeedDerived, c.Coalesced = false, false, false
	return json.Marshal(c)
}

// expectedCell is the response cell an analysis should produce.
func expectedCell(c *campaign.Cell) server.CellResult {
	an := c.Analysis
	row := an.TableIIRow()
	out := server.CellResult{
		Workload: c.Workload, Platform: c.Platform,
		MaxSpeedup: row.MaxSpeedup, HBMOnlySpeedup: row.HBMOnlySpeedup, NinetyUsage: row.NinetyUsage,
		MemoryBytes: int64(row.MemoryUsage), FilteredAllocs: row.FilteredAllocs,
		BaselineSec: an.BaselineTime.Seconds(), SampleCount: an.SampleCount,
	}
	if _, cfg := an.MaxSpeedup(); cfg != nil {
		out.BestConfig = cfg.Label
	}
	return out
}

// liveServer is an in-process hmptd on a loopback listener.
type liveServer struct {
	handler http.Handler
	hs      *httptest.Server
	fsys    *memFS // both cache rungs
}

func (s *liveServer) close() { s.hs.Close() }

// bootServer starts a server whose two cache rungs live in fsys. The
// server reaches a filesystem other than the real one only through its
// fault injector, which is disarmed: it passes every call through.
func bootServer(fsys *memFS) (*liveServer, error) {
	inj := faultfs.NewInjector(fsys, faultfs.Config{})
	inj.SetArmed(false)
	srv, err := server.New(server.Config{
		CacheDir:         "/snap",
		AnalysisCacheDir: "/an",
		Injector:         inj,
		Log:              log.New(io.Discard, "", 0),
	})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	return &liveServer{handler: h, hs: httptest.NewServer(h), fsys: fsys}, nil
}

// newClient is one closed-loop client: one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   opTimeout,
	}
}

// analyzeBody encodes an analyze request for the key.
func analyzeBody(r request) []byte {
	seed := r.seed
	raw, _ := json.Marshal(server.AnalyzeRequest{Workload: r.workload, Platform: r.platform, Seed: &seed})
	return raw
}

// post sends one analyze request and returns the status and body.
func post(cl *http.Client, url string, r request) (int, []byte, error) {
	resp, err := cl.Post(url+"/v1/analyze", "application/json", bytes.NewReader(analyzeBody(r)))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// fill asks for every key once and returns the normalized cells.
func fill(s *liveServer, keys []request) (map[string][]byte, error) {
	cl := newClient()
	defer cl.CloseIdleConnections()
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		status, raw, err := post(cl, s.hs.URL, k)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("fill %s: status %d: %s", k.key(), status, raw)
		}
		var resp server.AnalyzeResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			return nil, err
		}
		if out[k.key()], err = normalized(resp.Result); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// missRec is one miss response kept for the oracle.
type missRec struct {
	req  request
	cell []byte
}

// answered counts the answered warm and miss requests across clients.
type answered struct{ warm, miss atomic.Int64 }

// clientRun is what one client observed.
type clientRun struct {
	warmMs, missMs []float64
	plain, traced  []time.Duration
	ok, analyzed   int
	attempted      int
	failed         int
	misses         []missRec
	counts         map[string]float64
	countedReqs    int
}

// heldBytes is the size of the client's latency and miss records.
func (cr *clientRun) heldBytes() int64 {
	n := 8 * (cap(cr.warmMs) + cap(cr.missMs) + cap(cr.plain) + cap(cr.traced))
	n += cap(cr.misses) * int(unsafe.Sizeof(missRec{}))
	for _, m := range cr.misses {
		n += cap(m.cell)
	}
	return int64(n)
}

// runClient sends client c's sequence until stop is set.
func runClient(rc *runCfg, t *tracer, url string, c int, warm, combos []request, fills map[string][]byte, stop *atomic.Bool, progress *answered) *clientRun {
	cr := &clientRun{counts: make(map[string]float64)}
	cl := newClient()
	defer cl.CloseIdleConnections()
	last := make(map[string][]byte) // last validated raw response per warm key
	for k := 0; !stop.Load(); k++ {
		r := requestAt(rc.seed, warm, combos, c, k)
		cr.attempted++
		tt := (*tracer)(nil)
		if rc.traced && k%2 == 1 {
			tt = t
		}
		if r.kind == scrapeReq {
			id := tt.begin("op.scrape", k, -1)
			resp, err := cl.Get(url + "/metrics")
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			tt.end(id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: serve-mix scrape: %v\n", err)
				cr.failed++
				continue
			}
			cr.ok++
			continue
		}
		id := tt.begin("op.analyze", k, -1)
		start := time.Now()
		status, raw, err := post(cl, url, r)
		d := time.Since(start)
		tt.end(id)
		if rc.traced && r.kind == warmReq { // overhead on like requests only
			if tt != nil {
				cr.traced = append(cr.traced, d)
			} else {
				cr.plain = append(cr.plain, d)
			}
		}
		// Every attempt counts toward the sample minimums, so a program
		// that fails every request still ends the run. A correct run has
		// no failed attempts, so its latencies are those of successes.
		if r.kind == missReq {
			cr.missMs = append(cr.missMs, ms(d))
			progress.miss.Add(1)
		} else {
			cr.warmMs = append(cr.warmMs, ms(d))
			progress.warm.Add(1)
		}
		if err == nil {
			err = checkResponse(cr, r, status, raw, fills, last, rc.traced)
		}
		if err != nil {
			if cr.failed < 10 { // the first few say what broke; the count says how often
				fmt.Fprintf(os.Stderr, "perfbench: serve-mix client %d request %d (%s): %v\n", c, k, r.key(), err)
			}
			cr.failed++
			continue
		}
		cr.ok++
		cr.analyzed++
	}
	return cr
}

// checkResponse validates one analyze response: a 200, provenance that
// agrees with what was sent, and — for a warm key — the same analysis
// the set-up fill returned. Miss cells are kept for the engine oracle.
func checkResponse(cr *clientRun, r request, status int, raw []byte, fills map[string][]byte, last map[string][]byte, count bool) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, raw)
	}
	key := r.key()
	if r.kind == warmReq && bytes.Equal(raw, last[key]) && !count {
		return nil // byte-identical to a response already validated
	}
	var resp server.AnalyzeResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return err
	}
	if count {
		cr.countedReqs++
		cr.counts["campaign.kernels"] += float64(resp.Counters.Executions)
		cr.counts["campaign.derived"] += float64(resp.Counters.Derived)
		cr.counts["campaign.cache_hits"] += float64(resp.Counters.CacheHits)
		cr.counts["campaign.analysis_hits"] += float64(resp.Counters.AnalysisHits)
		cr.counts["campaign.coalesced"] += float64(resp.Counters.Coalesced)
	}
	res := resp.Result
	cell, err := normalized(res)
	if err != nil {
		return err
	}
	if r.kind == missReq {
		if res.AnalysisFromCache || !res.Derived {
			return fmt.Errorf("unseen seed served with analysis_from_cache=%v derived=%v", res.AnalysisFromCache, res.Derived)
		}
		cr.misses = append(cr.misses, missRec{req: r, cell: cell})
		return nil
	}
	// A warm key must be served from the analysis memo or cache with no
	// new work. A GroupBy cell's analysis comes from the server's
	// retained analysis flight instead, which hands every later caller
	// the flag of the computation that filled it
	// (analysis_from_cache=false), so for GroupBy workloads alone a
	// snapshot served from cache also counts.
	fresh := resp.Counters.Executions > 0 || resp.Counters.Derived > 0 || res.Derived
	cached := res.AnalysisFromCache || (r.groupBy && res.SnapshotFromCache)
	if fresh || !cached {
		return fmt.Errorf("warm key served with new work: analysis_from_cache=%v snapshot_from_cache=%v derived=%v executions=%d",
			res.AnalysisFromCache, res.SnapshotFromCache, res.Derived, resp.Counters.Executions)
	}
	if !bytes.Equal(cell, fills[key]) {
		return fmt.Errorf("warm result differs from the set-up fill")
	}
	last[key] = raw
	return nil
}

// runServe is the serve-mix workload.
func runServe(ctx context.Context, rc *runCfg) (*outcome, error) {
	out := newOutcome()
	warm := warmKeys(rc.seed)
	combos := serveCombos()

	// Set-up boots the server and fills the warm keys; it is repeated
	// and the last server is the one measured.
	var live *liveServer
	var fills map[string][]byte
	setupS, err := timedSetups(rc, func(int) error {
		if live != nil {
			live.close()
		}
		var err error
		if live, err = bootServer(newMemFS()); err != nil {
			return err
		}
		fills, err = fill(live, warm)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if live != nil {
			live.close()
		}
	}()
	out.values["setup_s"] = setupS

	t := newTracer()
	var before map[string]float64
	if rc.traced {
		if before, err = scrapeValues(live.hs.URL); err != nil {
			return nil, err
		}
	}
	var stop atomic.Bool
	var progress answered
	runs := make([]*clientRun, clients)
	var wg sync.WaitGroup
	rt0 := readRT()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runs[c] = runClient(rc, t, live.hs.URL, c, warm, combos, fills, &stop, &progress)
		}(c)
	}
	time.Sleep(rc.seconds)
	for progress.warm.Load() < minWarm || progress.miss.Load() < clients*missesPerClient {
		if time.Since(start) >= phaseLimit*rc.seconds {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start)
	rt1 := readRT()
	if !rc.traced {
		// The cache files the server wrote sit in the same heap; they
		// would be on disk in a deployment, so they are left out, and so
		// are the clients' latency and miss records.
		held := live.fsys.held()
		for _, cr := range runs {
			held += cr.heldBytes()
		}
		out.values["heap_mb"] = liveHeapMB() - float64(held)/(1<<20)
	}

	all := &clientRun{counts: make(map[string]float64)}
	for _, cr := range runs {
		all.warmMs = append(all.warmMs, cr.warmMs...)
		all.missMs = append(all.missMs, cr.missMs...)
		all.plain = append(all.plain, cr.plain...)
		all.traced = append(all.traced, cr.traced...)
		all.ok += cr.ok
		all.analyzed += cr.analyzed
		all.misses = append(all.misses, cr.misses...)
		all.countedReqs += cr.countedReqs
		for k, v := range cr.counts {
			all.counts[k] += v
		}
		out.attempted += cr.attempted
		out.failed += cr.failed
	}
	if !rc.traced {
		out.values["cells_per_s"] = rate(all.analyzed, wall)
		out.values["req_per_s"] = rate(all.ok, wall)
		for _, p := range []struct {
			name string
			xs   []float64
			pct  float64
		}{
			{"campaign_ms_p50", all.missMs, 50}, {"campaign_ms_p90", all.missMs, 90},
			{"warm_ms_p50", all.warmMs, 50}, {"warm_ms_p95", all.warmMs, 95},
		} {
			out.values[p.name] = reportedPercentile(rc, p.name, p.xs, p.pct)
		}
	}
	rc.info["misses"] = len(all.missMs)
	rc.info["warm_requests"] = len(all.warmMs)

	if rc.traced {
		after, err := scrapeValues(live.hs.URL)
		if err != nil {
			return nil, err
		}
		reqs := float64(max(all.countedReqs, 1))
		for k, v := range all.counts {
			out.values[k] = v / reqs
		}
		ops := float64(out.attempted)
		delta := func(name string) float64 { return after[name] - before[name] }
		out.values["fsatomic.publishes"] = (delta(`hmptd_snapshot_cache_ops_total{op="store"}`) +
			delta(`hmptd_analysis_cache_ops_total{op="store"}`)) / ops
		out.values["fsatomic.retries"] = (delta(`hmptd_snapshot_publish_total{event="retry"}`) +
			delta(`hmptd_analysis_publish_total{event="retry"}`)) / ops
		if n := delta(`hmptd_stage_seconds_count{stage="run"}`); n > 0 {
			out.values["campaign.run_ms"] = delta(`hmptd_stage_seconds_sum{stage="run"}`) / n * 1000
		}
		opOverhead(rc, all.plain, all.traced)
		runtimeMetrics(out, rt0, rt1, out.attempted)
		spec := tableISpec(warmSeedList(rc.seed))
		m, err := spec.Matrix()
		if err != nil {
			return nil, err
		}
		if err := layerWalk(ctx, rc, t, walkIn{spec: spec, cells: cellsOf(m), live: live}, out); err != nil {
			return nil, err
		}
	}

	// Oracle: every miss against a direct engine run made now, after the
	// server and everything it retained are released.
	live.close()
	live = nil
	bad, err := missOracle(ctx, all.misses)
	if err != nil {
		// An oracle that cannot be computed fails every miss it was to check.
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix oracle: %v\n", err)
		bad = len(all.misses)
	}
	out.failed += bad
	return out, nil
}

func warmSeedList(seed uint64) []uint64 {
	out := make([]uint64, warmSeeds)
	for i := range out {
		out[i] = kernelSeed(seed, i)
	}
	return out
}

// missOracle re-runs every miss in a fresh engine over its own cache
// tree — one base capture per family at the paper seed, every miss
// seed derived from it — and counts the misses whose cell differs.
func missOracle(ctx context.Context, misses []missRec) (int, error) {
	fsys, err := captureBases(ctx)
	if err != nil {
		return 0, err
	}
	snaps, _, err := caches(fsys, "/")
	if err != nil {
		return 0, err
	}
	groups := make(map[string][]missRec)
	var order []string
	for _, m := range misses {
		g := m.req.workload + "/" + m.req.platform
		if _, ok := groups[g]; !ok {
			order = append(order, g)
		}
		groups[g] = append(groups[g], m)
	}
	bad := 0
	for _, g := range order {
		recs := groups[g]
		wl, err := experiments.WorkloadByName(recs[0].req.workload, false)
		if err != nil {
			return 0, err
		}
		p, err := experiments.PlatformByName(recs[0].req.platform)
		if err != nil {
			return 0, err
		}
		m := campaign.Matrix{Workloads: []campaign.Workload{wl}, Platforms: []campaign.Platform{p}}
		for _, r := range recs {
			seed := r.req.seed
			m.Variants = append(m.Variants, campaign.Variant{
				Name: fmt.Sprintf("seed%d", seed), Apply: func(o *core.Options) { o.Seed = seed },
			})
		}
		res, err := (&campaign.Engine{Cache: snaps}).RunContext(ctx, m)
		if err != nil {
			return 0, err
		}
		for i, r := range recs {
			c := &res.Cells[i]
			if c.Err != nil {
				return 0, fmt.Errorf("%s seed %d: %w", g, r.req.seed, c.Err)
			}
			want, err := normalized(expectedCell(c))
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(want, r.cell) {
				fmt.Fprintf(os.Stderr, "perfbench: serve-mix miss %s differs from the engine run\n", r.req.key())
				bad++
			}
		}
	}
	return bad, nil
}
