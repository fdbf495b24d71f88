package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"

	"hmpt/internal/core"
	"hmpt/internal/experiments"
	"hmpt/internal/ibs"
	"hmpt/internal/memsim"
	"hmpt/internal/shard"
	"hmpt/internal/shim"
	"hmpt/internal/trace"
	"hmpt/internal/workloads"
)

// The layer walk drives a workload's cells one public call at a time,
// with a span around every call, after the traced phase: the per-layer
// metrics are means over these calls. Every workload walks every layer
// on its own cells, so each per-layer metric is measured on each
// workload: the campaign workloads boot a server over their cells, and
// serve-mix plans its warm keys as a sharded campaign.

// walkIn is what a workload hands the walk.
type walkIn struct {
	spec  experiments.CampaignSpec
	cells []cellRef
	// template holds one base capture per family; nil captures them.
	template *memFS
	// live is serve-mix's running server: its family index is the one
	// scanned and its warm keys the ones probed. nil boots a server over
	// the walk's tree.
	live *liveServer
}

// walkReps is how many sharded runs, single-engine runs, probe rounds,
// scrapes and untraced/traced pairs of cell walks the walk makes.
const walkReps = 5

func layerWalk(ctx context.Context, rc *runCfg, t *tracer, in walkIn, out *outcome) error {
	dir := filepath.Join(rc.scratch, "walk")
	defer os.RemoveAll(dir)
	wt := newTracer() // the walk's own spans, for the layer profile
	template := in.template
	if template == nil {
		template = newMemFS()
	}
	bases, err := walkFamilies(ctx, wt, in.cells, template, in.template == nil)
	if err != nil {
		return err
	}
	if err := walkOverhead(ctx, in, bases, out); err != nil {
		return err
	}
	if err := walkCells(ctx, wt, in, bases, out); err != nil {
		return err
	}
	if err := walkShard(ctx, wt, dir, template, in.spec, out); err != nil {
		return err
	}
	if err := walkServer(wt, template, in, out); err != nil {
		return err
	}

	both := func(name string) []time.Duration { return append(t.durations(name), wt.durations(name)...) }
	meanOf := func(name string, unit time.Duration) float64 { return mean(both(name)) / float64(unit) }
	for _, m := range []struct {
		name string
		span string
		unit time.Duration
	}{
		{"workloads.kernel_ms", "workloads.kernel", time.Millisecond},
		{"trace.canonical_ms", "trace.canonical", time.Millisecond},
		{"ibs.count_ms", "ibs.count", time.Millisecond},
		{"core.capture_ms", "core.capture", time.Millisecond},
		{"core.derive_us", "core.derive", time.Microsecond},
		{"trace.family_scan_us", "trace.family_scan", time.Microsecond},
		{"core.context_us", "core.context", time.Microsecond},
		{"core.analyze_ms", "core.analyze", time.Millisecond},
		{"memsim.compile_us", "memsim.compile", time.Microsecond},
		{"trace.snap_encode_us", "trace.snap_encode", time.Microsecond},
		{"trace.snap_decode_us", "trace.snap_decode", time.Microsecond},
		{"trace.snap_store_us", "trace.snap_store", time.Microsecond},
		{"trace.snap_load_us", "trace.snap_load", time.Microsecond},
		{"core.an_encode_us", "core.an_encode", time.Microsecond},
		{"core.an_decode_us", "core.an_decode", time.Microsecond},
		{"core.an_store_us", "core.an_store", time.Microsecond},
		{"core.an_load_us", "core.an_load", time.Microsecond},
		{"shard.plan_ms", "shard.plan", time.Millisecond},
		{"shard.worker_ms", "shard.worker", time.Millisecond},
		{"shard.merge_ms", "shard.merge", time.Millisecond},
		{"server.handler_us", "server.handler", time.Microsecond},
		{"server.transport_us", "server.transport", time.Microsecond},
		{"server.scrape_ms", "server.scrape", time.Millisecond},
	} {
		out.values[m.name] = meanOf(m.span, m.unit)
	}
	if _, ok := out.values["campaign.run_ms"]; !ok {
		out.values["campaign.run_ms"] = meanOf("campaign.run", time.Millisecond)
	}
	out.values["split.kernel_share"] = mean(both("workloads.kernel")) / mean(both("core.capture"))
	out.values["split.handler_share"] = mean(both("server.handler")) / mean(both("server.transport"))

	keys := make(map[string]bool)
	for _, c := range in.cells {
		keys[core.SnapshotKeyFor(c.w.Name, c.options()).ID()] = true
	}
	top := wt.layerSelf(profileWeight(rc.workload, len(in.cells), len(keys), len(wt.durations("server.handler"))))
	rc.info["top_layers_self_ms"] = top[:min(3, len(top))]
	rc.info["splits"] = map[string]float64{
		"kernel_share_of_capture":    out.values["split.kernel_share"],
		"handler_share_of_transport": out.values["split.handler_share"],
		"shard_overhead_frac":        out.values["shard.overhead_frac"],
	}
	spans := append(t.snapshot(), wt.snapshot()...)
	return writeSpans(filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", rc.workload, rc.seed)), spans)
}

// profileWeight weights each walk span by how often one operation of
// the workload makes that call per call the walk made, so the weighted
// self times add up to one operation: one cold campaign, one sharded
// sweep, or 50 serve-mix requests while unseen seeds are sent (49
// warm, one miss). Zero leaves a span out: the benchmark's glue; the
// probes reported as splits (loopback transport, shard workers,
// single-engine runs); and calls whose work a kept call already
// contains — the capture, which its split kernel run stands for (first
// repetition only), the codecs, which cache stores and loads run, and
// memsim, which the analysis runs. The engine resolves a
// capture, its replay context and its snapshot publish once per snapshot
// key, the walk once per cell; perKey scales those.
func profileWeight(workload string, cells, keys, handlers int) func(span) float64 {
	perKey := float64(keys) / float64(cells)
	var w map[string]float64
	switch workload {
	case "cold-campaign":
		w = map[string]float64{
			"core.context": perKey, "trace.snap_store": perKey,
			"core.analyze": 1, "core.an_store": 1, "core.an_load": 1,
		}
	case "sharded-sweep":
		w = map[string]float64{
			"trace.family_scan": perKey, "trace.snap_load": perKey, "core.derive": perKey,
			"core.context": perKey, "trace.snap_store": perKey,
			"core.analyze": 1, "core.an_store": 1, "core.an_load": 14 / float64(cells),
			"shard.plan": 1 / float64(walkReps), "shard.merge": 1 / float64(walkReps),
		}
	case "serve-mix":
		miss := 1 / float64(cells)
		w = map[string]float64{
			"server.handler":    (missEvery - 1) / float64(handlers),
			"trace.family_scan": miss, "trace.snap_load": miss, "core.derive": miss,
			"core.context": miss, "trace.snap_store": miss, "core.analyze": miss, "core.an_store": miss,
		}
	}
	return func(s span) float64 {
		switch s.Name {
		case "workloads.kernel", "trace.canonical", "ibs.count":
			if workload == "cold-campaign" && s.Op == 0 {
				return 1
			}
			return 0
		}
		return w[s.Name]
	}
}

// walkFamilies captures one base per family at the paper seed, storing
// it into the template when asked, and splits one more run of each
// kernel into execution, canonicalisation and sample counting — the
// split core.CaptureContext does not expose.
func walkFamilies(ctx context.Context, t *tracer, cells []cellRef, template *memFS, store bool) (map[string]*trace.Snapshot, error) {
	snaps, _, err := caches(template, "/")
	if err != nil {
		return nil, err
	}
	bases := make(map[string]*trace.Snapshot)
	for _, c := range cells {
		w := c.w
		if bases[w.Name] != nil {
			continue
		}
		for r := 0; r < 3; r++ {
			root := t.begin("walk.family", r, -1)
			var snap *trace.Snapshot
			id := t.begin("core.capture", r, root)
			snap, err = core.CaptureContext(ctx, w.Factory(), w.Options)
			t.end(id)
			if err != nil {
				return nil, err
			}
			m := snap.Meta
			env := workloads.NewEnv(m.Threads, m.Scale, m.EnvSeed)
			env.Iterations = m.Iterations
			k := w.Factory()
			id = t.begin("workloads.kernel", r, root)
			err = k.Setup(env)
			if err == nil {
				err = k.Run(env)
			}
			if err == nil {
				err = k.Verify()
			}
			t.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s kernel: %w", w.Name, err)
			}
			id = t.begin("trace.canonical", r, root)
			tr := env.Rec.Trace().Canonical()
			t.end(id)
			id = t.begin("ibs.count", r, root)
			counts, err := (&ibs.Sampler{Period: m.SamplePeriod, MaxSamples: m.SampleBudget}).Counts(tr, env.Alloc)
			t.end(id)
			t.end(root)
			if err != nil {
				return nil, err
			}
			if !reflect.DeepEqual(counts, snap.Samples) || !reflect.DeepEqual(tr, snap.Trace) {
				return nil, fmt.Errorf("%s: the split kernel run does not reproduce its capture", w.Name)
			}
			bases[w.Name] = snap
		}
		if store {
			if err := snaps.Store(core.SnapshotKeyFor(w.Name, w.Options), bases[w.Name]); err != nil {
				return nil, err
			}
		}
	}
	return bases, nil
}

// walkCells derives, codes, caches and analyses every cell one call at
// a time, and compiles and evaluates the analysis' placement sweep.
func walkCells(ctx context.Context, t *tracer, in walkIn, bases map[string]*trace.Snapshot, out *outcome) error {
	snaps, ans, err := caches(newMemFS(), "/")
	if err != nil {
		return err
	}
	scan := snaps
	if in.live != nil {
		if scan, _, err = caches(in.live.fsys, "/"); err != nil {
			return err
		}
	}
	var snapBytes, anBytes, records, masks, maskNs []float64
	for i, c := range in.cells {
		opts := c.options()
		root := t.begin("walk.cell", i, -1)
		call := func(name string, fn func() error) error {
			id := t.begin(name, i, root)
			defer t.end(id)
			return fn()
		}
		var snap *trace.Snapshot
		key := core.SnapshotKeyFor(c.w.Name, opts)
		var raw []byte
		var members []trace.SnapshotKey
		var rctx *core.ReplayContext
		var an *core.Analysis
		steps := []struct {
			name string
			fn   func() error
		}{
			{"core.derive", func() (err error) { snap, err = core.DeriveSnapshot(bases[c.w.Name], c.w.Factory(), opts); return }},
			{"trace.snap_encode", func() (err error) { raw, err = snap.EncodeBytes(); return }},
			{"trace.snap_decode", func() (err error) { _, err = trace.DecodeSnapshotBytes(raw); return }},
			{"trace.snap_store", func() error { return snaps.Store(key, snap) }},
			{"trace.snap_load", func() error { return loaded(snaps.Load(key)) }},
			{"trace.family_scan", func() error { members = scan.FamilyMembers(key); return nil }},
			{"core.context", func() (err error) { rctx, err = core.NewContext(snap); return }},
			{"core.analyze", func() (err error) { an, err = core.NewContextReplay(rctx, opts).AnalyzeContext(ctx); return }},
		}
		for _, s := range steps {
			if err := call(s.name, s.fn); err != nil {
				return fmt.Errorf("%s %s: %w", s.name, c, err)
			}
		}
		snapBytes = append(snapBytes, float64(len(raw)))
		records = append(records, float64(len(members)))

		p := c.p.Platform
		m := memsim.NewMachine(p)
		ddr, hbm := p.MustPool(memsim.DDR), p.MustPool(memsim.HBM)
		sets := make([][]shim.AllocID, len(an.Groups))
		for g := range an.Groups {
			sets[g] = an.Groups[g].Allocs
		}
		var ev *memsim.SweepEvaluator
		if err := call("memsim.compile", func() (err error) { ev, err = m.CompileSweep(snap.Trace, an.Threads, sets, ddr); return }); err != nil {
			return err
		}
		n := 1 << len(sets)
		start := time.Now()
		_ = call("memsim.masks", func() error {
			for mask := 0; mask < n; mask++ {
				ev.EvalMask(uint32(mask), ddr, hbm)
			}
			return nil
		})
		maskNs = append(maskNs, float64(time.Since(start).Nanoseconds())/float64(n))
		masks = append(masks, float64(n))

		akey, err := core.AnalysisKeyFor(c.w.Name, opts, rctx.Sites())
		if err != nil {
			return err
		}
		steps = []struct {
			name string
			fn   func() error
		}{
			{"core.an_encode", func() (err error) { raw, err = core.EncodeAnalysis(akey, an); return }},
			{"core.an_decode", func() (err error) { _, _, err = core.DecodeAnalysis(raw); return }},
			{"core.an_store", func() error { return ans.Store(akey, an) }},
			{"core.an_load", func() error { return loaded(ans.Load(akey)) }},
		}
		for _, s := range steps {
			if err := call(s.name, s.fn); err != nil {
				return fmt.Errorf("%s %s: %w", s.name, c, err)
			}
		}
		anBytes = append(anBytes, float64(len(raw)))
		t.end(root)
	}
	out.values["trace.snap_bytes"] = meanF(snapBytes)
	out.values["core.an_bytes"] = meanF(anBytes)
	out.values["trace.family_records"] = meanF(records)
	out.values["memsim.masks"] = meanF(masks)
	out.values["memsim.mask_ns"] = meanF(maskNs)
	return nil
}

// walkOverhead times the cell walk untraced and traced, alternately,
// walkReps times each, and reports the traced median over the untraced
// median, less one, as trace.overhead_frac: what the per-call spans the
// per-layer metrics come from add to the calls they time. The traced
// passes record into tracers of their own, left out of the profile.
func walkOverhead(ctx context.Context, in walkIn, bases map[string]*trace.Snapshot, out *outcome) error {
	var plain, traced []float64
	for r := 0; r < walkReps; r++ {
		for _, t := range []*tracer{nil, newTracer()} {
			start := time.Now()
			if err := walkCells(ctx, t, in, bases, out); err != nil {
				return err
			}
			if t == nil {
				plain = append(plain, ms(time.Since(start)))
			} else {
				traced = append(traced, ms(time.Since(start)))
			}
		}
	}
	out.values["trace.overhead_frac"] = median(traced)/median(plain) - 1
	return nil
}

// loaded turns a cache Load's miss into an error.
func loaded[T any](_ T, ok bool, err error) error {
	if err == nil && !ok {
		err = fmt.Errorf("entry just stored is missing")
	}
	return err
}

func meanF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// walkShard runs the workload's cells as a sharded campaign — plan, two
// workers, merge — and as a single-engine campaign, each walkReps times
// on fresh copies of the template. A lease reclaim fails the walk.
func walkShard(ctx context.Context, t *tracer, dir string, template *memFS, spec experiments.CampaignSpec, out *outcome) error {
	m, err := spec.Matrix()
	if err != nil {
		return err
	}
	l0, r0, x0, j0 := shard.LeasesAcquired(), shard.LeaseRenewals(), shard.LeasesReclaimed(), shard.CellsJournaled()
	var sharded, single []float64
	var skew float64
	for r := 0; r < walkReps; r++ {
		sub := filepath.Join(dir, fmt.Sprintf("shard-%d", r))
		run, err := shardedSweep(ctx, template, sub, spec, t, r)
		os.RemoveAll(sub)
		if err != nil {
			return fmt.Errorf("sharded walk: %w", err)
		}
		if err := run.merged.Result.Err(); err != nil {
			return fmt.Errorf("sharded walk: %w", err)
		}
		sharded = append(sharded, ms(run.dur))
		a, b := run.summaries[0].Executed, run.summaries[1].Executed
		skew += float64(abs(a-b)) / float64(max(a+b, 1))

		root := t.begin("walk.single", r, -1)
		id := t.begin("campaign.run", r, root)
		d, res, err := singleEngine(ctx, template, m)
		t.end(id)
		t.end(root)
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			return fmt.Errorf("single-engine walk: %w", err)
		}
		single = append(single, ms(d))
	}
	reps := float64(walkReps)
	out.values["shard.overhead_frac"] = 1 - median(single)/median(sharded)
	out.values["shard.claim_skew"] = skew / reps
	out.values["shard.leases"] = float64(shard.LeasesAcquired()-l0) / reps
	out.values["shard.renewals"] = float64(shard.LeaseRenewals()-r0) / reps
	out.values["shard.reclaims"] = float64(shard.LeasesReclaimed()-x0) / reps
	out.values["shard.journal_records"] = float64(shard.CellsJournaled()-j0) / reps
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// walkServer times warm analyze requests through the handler alone
// (into a ResponseRecorder) and through the loopback round trip, and
// scrapes /metrics. Campaign workloads boot a server over a copy of the
// template and fill their cells first.
func walkServer(t *tracer, template *memFS, in walkIn, out *outcome) error {
	s := in.live
	keys := make([]request, len(in.cells))
	for i, c := range in.cells {
		keys[i] = request{workload: c.w.Name, platform: c.p.Name, seed: c.options().Seed}
	}
	if s == nil {
		var err error
		if s, err = bootServer(template.clone()); err != nil {
			return err
		}
		defer s.close()
		if _, err := fill(s, keys); err != nil {
			return err
		}
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	var respBytes []float64
	for r := 0; r < walkReps; r++ {
		root := t.begin("walk.server", r, -1)
		for i, k := range keys {
			body := analyzeBody(k)
			rec := httptest.NewRecorder()
			id := t.begin("server.handler", i, root)
			s.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
			t.end(id)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler %s: status %d", k.key(), rec.Code)
			}
			respBytes = append(respBytes, float64(rec.Body.Len()))
			id = t.begin("server.transport", i, root)
			status, _, err := post(cl, s.hs.URL, k)
			t.end(id)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("transport %s: status %d", k.key(), status)
			}
		}
		t.end(root)
	}
	var scrapeBytes, retained []float64
	for r := 0; r < walkReps; r++ {
		id := t.begin("server.scrape", r, -1)
		raw, err := scrape(cl, s.hs.URL)
		t.end(id)
		if err != nil {
			return err
		}
		scrapeBytes = append(scrapeBytes, float64(len(raw)))
		vals := parseMetrics(raw)
		retained = append(retained, vals["hmptd_flights_retained"])
	}
	out.values["server.resp_bytes"] = meanF(respBytes)
	out.values["server.scrape_bytes"] = meanF(scrapeBytes)
	out.values["server.flights_retained"] = meanF(retained)
	return nil
}

// scrape fetches /metrics.
func scrape(cl *http.Client, url string) ([]byte, error) {
	resp, err := cl.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return buf.Bytes(), nil
}

// scrapeValues fetches /metrics and parses it.
func scrapeValues(url string) (map[string]float64, error) {
	cl := newClient()
	defer cl.CloseIdleConnections()
	raw, err := scrape(cl, url)
	if err != nil {
		return nil, err
	}
	return parseMetrics(raw), nil
}

// parseMetrics reads Prometheus text exposition into series → value,
// keyed by the series name with its labels as written.
func parseMetrics(raw []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
