// Command hmpt is the driver tool of the reproduction: it analyses a
// benchmark's allocation placement space on the simulated Xeon Max
// platform and reports the paper's detailed view, summary view, and
// placement recommendations.
//
// Usage:
//
//	hmpt list
//	hmpt analyze <workload> [-runs N] [-threads N] [-seed N] [-full] [-csv]
//	             [-ibs-period N] [-ibs-max-samples N] [-iters N]
//	hmpt plan <workload> -budget <bytes, e.g. 16GB> [-full]
//	hmpt campaign [-workloads a,b|all] [-platforms xeonmax,dual] [-seeds N|1,2]
//	              [-runs N] [-cache DIR] [-analysis-cache DIR] [-workers N]
//	              [-full] [-csv] [-ibs-period N] [-ibs-max-samples N] [-iters N]
//	              [-shard-dir DIR [-shard-merge|-shard-plan] [-shard-id S]
//	               [-shard-ttl D] [-shard-heartbeat D] [-shard-poll D]
//	               [-shard-max-attempts N] [-shard-backoff D]]
//	hmpt cache stats -cache DIR [-analysis-cache DIR] [-json]
//	hmpt cache gc -cache DIR [-analysis-cache DIR] [-max-bytes N]
//	              [-staging-age D] [-dry-run] [-json]
//	hmpt bench-report [-in FILE] [-out FILE] [-label S] [-expect a,b]
//	                  [-prior 'BENCH_pr*.json']
//
// A campaign given -shard-dir runs as one worker of a crash-safe
// sharded campaign: N such processes share the work through durable
// leases and a resumable completion journal, a SIGKILLed worker's cells
// are reclaimed by the survivors, and -shard-merge folds the journal
// into the exact table (and CSV bytes) a single-process run prints.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/experiments"
	"hmpt/internal/memsim"
	"hmpt/internal/report"
	"hmpt/internal/shard"
	"hmpt/internal/trace"
	"hmpt/internal/units"
	"hmpt/internal/workloads"

	// Registered through experiments for the benchmark set; synth only
	// lives in the registry.
	_ "hmpt/internal/workloads/synth"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hmpt:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: hmpt <list|analyze|plan|campaign|cache|bench-report> [args]")
	}
	switch args[0] {
	case "list":
		for _, name := range workloads.Names() {
			fmt.Printf("%-10s %s\n", name, workloads.Describe(name))
		}
		return nil
	case "analyze":
		return analyze(args[1:])
	case "plan":
		return plan(args[1:])
	case "campaign":
		return campaignCmd(args[1:])
	case "cache":
		return cacheCmd(args[1:])
	case "bench-report":
		return benchReport(args[1:])
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// campaignCmd runs a scenario matrix — workloads × platform presets ×
// seed variants — on the campaign engine: each kernel executes at most
// once (or not at all when the snapshot cache already holds its
// reference run), cells of one capture share a replay context, and a
// cell whose full analysis is already in the analysis cache runs zero
// placement costing.
func campaignCmd(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	workloadsFlag := fs.String("workloads", "all", "comma-separated workloads (all = the Table I set)")
	platformsFlag := fs.String("platforms", "xeonmax", "comma-separated platform presets: xeonmax, dual")
	seedsFlag := fs.String("seeds", "", "seed sweep: a bare count N expands to seeds 1..N, a comma-separated list selects exact seeds (empty = spec seeds)")
	runs := fs.Int("runs", 0, "measured runs per configuration (0 = spec default)")
	cacheDir := fs.String("cache", "", "snapshot cache directory (empty = no disk cache)")
	analysisDir := fs.String("analysis-cache", "", "analysis cache directory (empty = <cache>/analyses when -cache is set, else no analysis cache)")
	workers := fs.Int("workers", 0, "campaign worker goroutines (0 = GOMAXPROCS)")
	full := fs.Bool("full", false, "full-size workload instances (slower)")
	csv := fs.Bool("csv", false, "emit CSV instead of a table")
	ibsPeriod := fs.Int64("ibs-period", 0, "IBS sampling period in cache lines (0 = default 64Ki); part of the snapshot cache key")
	ibsMax := fs.Int("ibs-max-samples", 0, "IBS per-run sample budget (0 = default 200k); part of the snapshot cache key")
	iters := fs.Int("iters", 0, "iteration/timestep count override (0 = workload default); part of the snapshot cache key")
	shardDir := fs.String("shard-dir", "", "shard coordination directory: join the campaign as a crash-safe worker (first arrival plans the manifest)")
	shardMerge := fs.Bool("shard-merge", false, "with -shard-dir: fold the completion journal into the campaign result instead of working")
	shardPlan := fs.Bool("shard-plan", false, "with -shard-dir: write the manifest and exit without executing cells")
	shardID := fs.String("shard-id", "", "shard worker identity (default: host-pid-nonce)")
	shardTTL := fs.Duration("shard-ttl", 30*time.Second, "shard lease TTL: a worker silent this long forfeits its cells to the survivors")
	shardHB := fs.Duration("shard-heartbeat", 0, "shard lease renewal period (0 = TTL/3)")
	shardPoll := fs.Duration("shard-poll", 200*time.Millisecond, "shard idle re-scan period while all remaining cells are claimed elsewhere")
	shardAttempts := fs.Int("shard-max-attempts", 3, "fleet-wide execution attempts per cell before quarantine")
	shardBackoff := fs.Duration("shard-backoff", time.Second, "retry delay after a cell's first failure, doubling per failure")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := experiments.CampaignSpec{
		Workloads:    strings.Split(*workloadsFlag, ","),
		Platforms:    strings.Split(*platformsFlag, ","),
		Runs:         *runs,
		Full:         *full,
		SamplePeriod: *ibsPeriod,
		SampleBudget: int64(*ibsMax),
		Iterations:   *iters,
	}
	if *seedsFlag != "" {
		if !strings.Contains(*seedsFlag, ",") {
			// A bare integer is a range: -seeds 8 sweeps seeds 1..8. The
			// spec normalises it into the explicit list, so the shard
			// manifest hash is the same however the sweep was spelled.
			n, err := strconv.Atoi(strings.TrimSpace(*seedsFlag))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad seed count %q: want a positive count or a comma-separated seed list", *seedsFlag)
			}
			spec.SeedCount = n
		} else {
			for _, s := range strings.Split(*seedsFlag, ",") {
				seed, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
				if err != nil {
					return fmt.Errorf("bad seed %q: %w", s, err)
				}
				spec.Seeds = append(spec.Seeds, seed)
			}
		}
	}

	if *shardDir != "" {
		switch {
		case *shardMerge:
			return shardMergeCmd(*shardDir, *csv)
		case *shardPlan:
			man, err := shard.Plan(*shardDir, spec)
			if err != nil {
				return err
			}
			fmt.Printf("shard plan: %d cells, manifest %.12s at %s\n", man.Cells, man.ID, *shardDir)
			return nil
		default:
			eng, err := buildCampaignEngine(*cacheDir, *analysisDir, *workers)
			if err != nil {
				return err
			}
			return shardWorkerCmd(*shardDir, spec, shard.WorkerOptions{
				ID: *shardID, TTL: *shardTTL, Heartbeat: *shardHB, Poll: *shardPoll,
				MaxAttempts: *shardAttempts, Backoff: *shardBackoff, Engine: eng,
			})
		}
	}

	m, err := spec.Matrix()
	if err != nil {
		return err
	}
	eng, err := buildCampaignEngine(*cacheDir, *analysisDir, *workers)
	if err != nil {
		return err
	}
	res, err := eng.Run(m)
	if err != nil {
		return err
	}

	summary, err := emitCampaignResult(res, *csv)
	if err != nil {
		return err
	}
	fmt.Fprintf(summary, "\n%d cells, %d reference runs: %d kernels executed, %d snapshots derived from family bases (%d across seeds), %d snapshots served from cache, %d full analyses served from cache\n",
		len(res.Cells), res.Snapshots, res.Executions, res.Derived, res.SeedDerived, res.CacheHits, res.AnalysisHits)
	// CacheErrs carries snapshot-cache errors first, then analysis-cache
	// errors; the entries' own messages name their layer.
	for _, err := range res.CacheErrs {
		fmt.Fprintf(os.Stderr, "hmpt: campaign cache warning: %v\n", err)
	}
	return res.Err()
}

// buildCampaignEngine wires the campaign engine the way every campaign
// front-end (single-process, shard worker) shares: optional snapshot
// cache, analysis cache defaulting to <cache>/analyses, worker cap.
func buildCampaignEngine(cacheDir, analysisDir string, par int) (*campaign.Engine, error) {
	eng := &campaign.Engine{Parallelism: par}
	if cacheDir != "" {
		cache, err := trace.NewSnapshotCache(cacheDir)
		if err != nil {
			return nil, err
		}
		eng.Cache = cache
	}
	if analysisDir == "" && cacheDir != "" {
		analysisDir = filepath.Join(cacheDir, "analyses")
	}
	if analysisDir != "" {
		analyses, err := core.NewAnalysisCache(analysisDir)
		if err != nil {
			return nil, err
		}
		eng.Analyses = analyses
	}
	return eng, nil
}

// emitCampaignResult renders the campaign table and returns the stream
// trailing summaries should use. In CSV mode only the CSV reaches
// stdout; summaries and warnings go to stderr so piped output stays
// parseable — and so a merged sharded campaign's stdout is
// byte-comparable against a single-process run's.
func emitCampaignResult(res *campaign.Result, csv bool) (io.Writer, error) {
	t := report.NewTable("workload", "platform", "variant", "baseline", "max-speedup", "best-config", "hbm-only", "90%-usage", "error")
	for i := range res.Cells {
		cell := &res.Cells[i]
		if cell.Err != nil {
			t.AddRow(cell.Workload, cell.Platform, cell.Variant, "", "", "", "", "", cell.Err.Error())
			continue
		}
		an := cell.Analysis
		row := an.TableIIRow()
		_, best := an.MaxSpeedup()
		t.AddRow(cell.Workload, cell.Platform, cell.Variant, an.BaselineTime.String(),
			row.MaxSpeedup, best.Label, row.HBMOnlySpeedup, row.NinetyUsage, "")
	}
	if csv {
		if err := t.WriteCSV(os.Stdout); err != nil {
			return nil, err
		}
		return os.Stderr, nil
	}
	if err := t.Write(os.Stdout); err != nil {
		return nil, err
	}
	return os.Stdout, nil
}

// shardWorkerCmd joins (planning if first) a sharded campaign as one
// worker and reports its shard summary.
func shardWorkerCmd(dir string, spec experiments.CampaignSpec, opts shard.WorkerOptions) error {
	if _, err := shard.Plan(dir, spec); err != nil {
		return err
	}
	w, err := shard.NewWorker(dir, opts)
	if err != nil {
		return err
	}
	sum, err := w.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("shard %s: campaign complete: %d/%d cells executed here, %d journal-complete, %d lease reclaims, %d failures, %d quarantined in %s (%.1f cells/s)\n",
		sum.Owner, sum.Executed, sum.Cells, sum.JournalHits, sum.Reclaimed, sum.Failures, sum.Quarantined,
		sum.Duration.Round(time.Millisecond), sum.CellsPerSec)
	return nil
}

// shardMergeCmd folds a sharded campaign's journal into the same table
// a single-process run prints, plus the shard fleet summary and the
// structured quarantine report.
func shardMergeCmd(dir string, csv bool) error {
	merged, err := shard.Merge(dir, nil)
	if err != nil {
		return err
	}
	summary, err := emitCampaignResult(merged.Result, csv)
	if err != nil {
		return err
	}
	fmt.Fprintf(summary, "\nsharded campaign: %d cells, %d quarantined, %d pending; swept %d stale leases, %d staging files\n",
		len(merged.Result.Cells), len(merged.Quarantined), merged.Pending, merged.StaleLeases, merged.StaleStaging)
	for _, r := range merged.Reports {
		fmt.Fprintf(summary, "  shard %s: %d executed, %d journal-complete, %d reclaims, %d failures in %s (%.1f cells/s)\n",
			r.Owner, r.Executed, r.JournalHits, r.Reclaimed, r.Failures, r.Duration.Round(time.Millisecond), r.CellsPerSec)
	}
	for _, q := range merged.Quarantined {
		last := ""
		if len(q.Errors) > 0 {
			last = q.Errors[len(q.Errors)-1]
		}
		fmt.Fprintf(summary, "  quarantined %s/%s/%s after %d attempts: %s\n",
			q.Workload, q.Platform, q.Variant, q.Attempts, last)
	}
	if !merged.Complete {
		return fmt.Errorf("campaign incomplete: %d cells pending", merged.Pending)
	}
	return merged.Result.Err()
}

// analyzeWorkload runs the tuner for a named workload with flags applied.
func analyzeWorkload(fs *flag.FlagSet, args []string) (*core.Analysis, error) {
	runs := fs.Int("runs", 3, "measured runs per configuration")
	threads := fs.Int("threads", 0, "simulated threads (0 = all cores)")
	seed := fs.Uint64("seed", 1, "determinism seed")
	full := fs.Bool("full", false, "full-size workload instance (slower)")
	ibsPeriod := fs.Int64("ibs-period", 0, "IBS sampling period in cache lines (0 = default 64Ki)")
	ibsMax := fs.Int("ibs-max-samples", 0, "IBS per-run sample budget (0 = default 200k)")
	iters := fs.Int("iters", 0, "iteration/timestep count override (0 = workload default)")
	workers := fs.Int("workers", 0, "placement-sweep worker goroutines (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() < 1 {
		return nil, fmt.Errorf("missing workload name (try `hmpt list`)")
	}
	name := fs.Arg(0)
	// flag parsing stops at the workload name; re-parse what follows so
	// the documented `analyze <workload> [-flags]` order works.
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return nil, err
	}
	spec, err := experiments.SpecFor(name)
	if err != nil {
		// Not an evaluated benchmark: run with default options.
		w, werr := workloads.New(name)
		if werr != nil {
			return nil, werr
		}
		return core.New(w, core.Options{Runs: *runs, Threads: *threads, Seed: *seed,
			SamplePeriod: *ibsPeriod, SampleBudget: *ibsMax, Iterations: *iters,
			SweepParallelism: *workers}).Analyze()
	}
	opts := spec.Options
	opts.Runs = *runs
	opts.Threads = *threads
	if *seed != 1 {
		opts.Seed = *seed
	}
	if *ibsPeriod > 0 {
		opts.SamplePeriod = *ibsPeriod
	}
	if *ibsMax > 0 {
		opts.SampleBudget = *ibsMax
	}
	if *iters > 0 {
		opts.Iterations = *iters
	}
	if *workers > 0 {
		opts.SweepParallelism = *workers
	}
	opts.Platform = memsim.XeonMax9468()
	f := spec.Fast
	if *full {
		f = spec.Full
	}
	return core.New(f(), opts).Analyze()
}

func analyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	csv := fs.Bool("csv", false, "emit CSV instead of tables")
	an, err := analyzeWorkload(fs, args)
	if err != nil {
		return err
	}

	fmt.Printf("workload    %s\n", an.Workload)
	fmt.Printf("platform    %s\n", an.Platform)
	fmt.Printf("footprint   %v (%d sites, %d significant)\n", an.TotalBytes, an.TotalAllocs, an.FilteredAllocs)
	fmt.Printf("baseline    %v (all DDR, %d runs)\n", an.BaselineTime, an.Runs)
	fmt.Printf("ibs samples %d\n\n", an.SampleCount)

	gt := report.NewTable("group", "label", "size", "footprint", "density", "solo-speedup")
	for _, g := range an.Groups {
		gt.AddRow(g.Index, g.Label, g.SimBytes.String(), g.Frac, g.Density, g.SoloSpeedup)
	}
	dt := report.NewTable("config", "speedup", "ci95", "estimate", "hbm-usage", "samples", "feasible")
	for _, r := range an.Detailed(true) {
		ci := 0.0
		for i := range an.Configs {
			if an.Configs[i].Label == r.Label {
				ci = an.Configs[i].SpeedupCI
			}
		}
		dt.AddRow(r.Label, r.Speedup, ci, r.EstSpeedup, r.HBMUsage, r.Samples, fmt.Sprint(r.Feasible))
	}
	if *csv {
		if err := gt.WriteCSV(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		return dt.WriteCSV(os.Stdout)
	}
	if err := gt.Write(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := dt.Write(os.Stdout); err != nil {
		return err
	}

	// Summary view as a terminal scatter plot.
	sv := an.Summary()
	plot := report.NewPlot(fmt.Sprintf("summary view: speedup vs HBM footprint (max %.2fx)", sv.MaxSpeedup))
	plot.XLabel, plot.YLabel = "HBM fraction", "speedup"
	for _, pt := range sv.Singles {
		plot.Add(pt.HBMFrac, pt.Speedup, 'o')
	}
	for _, pt := range sv.Combos {
		plot.Add(pt.HBMFrac, pt.Speedup, '*')
	}
	plot.HLine(sv.MaxSpeedup, '=')
	plot.HLine(sv.Ninety, '-')
	fmt.Println()
	if err := plot.Write(os.Stdout); err != nil {
		return err
	}

	max, cfg := an.MaxSpeedup()
	ninety, ncfg := an.NinetyPercentUsage()
	fmt.Printf("\nmax speedup      %.2fx with %s in HBM (%.1f%% of data)\n", max, cfg.Label, cfg.HBMFrac*100)
	fmt.Printf("HBM-only speedup %.2fx\n", an.HBMOnly().Speedup)
	if ncfg != nil {
		fmt.Printf("90%% of max       %.2fx with %s (%.1f%% of data in HBM)\n", ncfg.Speedup, ncfg.Label, ninety*100)
	}
	return nil
}

// benchResult is one parsed benchmark line of a `go test -bench` log.
type benchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// benchReportDoc is the machine-readable form of a bench-smoke log,
// committed as a CI artifact so the cross-PR perf trajectory
// accumulates in a diffable format.
type benchReportDoc struct {
	Schema     string        `json:"schema"`
	Label      string        `json:"label,omitempty"`
	GoVersion  string        `json:"go"`
	Benchmarks []benchResult `json:"benchmarks"`
	// Trajectory is the merged cross-PR view (-prior): one point per
	// prior BENCH_*.json artifact, in file order, plus this report
	// itself as the final point — benchmark name to ns/op. Benchmarks a
	// point lacks are simply absent from its map, so renames show up as
	// gaps rather than zeros.
	Trajectory []trajectoryPoint `json:"trajectory,omitempty"`
}

// trajectoryPoint is one PR's entry of the merged trajectory table.
type trajectoryPoint struct {
	Label   string             `json:"label"`
	Source  string             `json:"source,omitempty"` // the prior file the point came from
	NsPerOp map[string]float64 `json:"ns_per_op"`
}

// benchReport parses `go test -bench` output into a JSON report. Lines
// that are not benchmark results (figure dumps, PASS/ok trailers) are
// skipped, so the bench-smoke log can be piped through unchanged.
//
// -expect names benchmarks the report must cover: an expected benchmark
// missing from the log (skipped, renamed, or filtered out by a changed
// -bench pattern) is emitted with null metrics instead of failing the
// job, so one renamed benchmark can never sink the whole perf-trajectory
// artifact — the nulls make the gap visible in the JSON instead.
//
// -prior merges earlier BENCH_*.json artifacts into a single cross-PR
// trajectory: the report gains a "trajectory" section (one ns/op point
// per prior file, in file order, plus this report as the final point)
// and a human-readable table is printed to stderr. Files or globs that
// match nothing are skipped — a fresh CI workspace has no priors and
// the report degrades to a single-point trajectory.
func benchReport(args []string) error {
	fs := flag.NewFlagSet("bench-report", flag.ContinueOnError)
	in := fs.String("in", "-", "bench output to parse (- = stdin)")
	out := fs.String("out", "", "JSON report path (empty = stdout)")
	label := fs.String("label", "", "trajectory label recorded in the report (e.g. pr3)")
	expect := fs.String("expect", "", "comma-separated benchmark names that must appear; missing ones are recorded with null metrics instead of failing")
	prior := fs.String("prior", "", "comma-separated prior BENCH_*.json files or globs to merge into the cross-PR trajectory (missing files are skipped)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	doc := benchReportDoc{Schema: "hmpt-bench/v1", Label: *label, GoVersion: runtime.Version()}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		res, ok := parseBenchLine(sc.Text())
		if ok {
			doc.Benchmarks = append(doc.Benchmarks, res)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading bench output: %w", err)
	}
	// A log with no benchmark lines at all means the bench invocation
	// itself is broken (typo'd -bench pattern, failed build) — that
	// must stay a hard error, or an all-null report would silently
	// disable every perf gate. The nulls below tolerate *individual*
	// missing or renamed benchmarks only.
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in %s", *in)
	}
	for _, name := range strings.Split(*expect, ",") {
		name = strings.TrimSpace(name)
		if name == "" || benchCovered(doc.Benchmarks, name) {
			continue
		}
		fmt.Fprintf(os.Stderr, "hmpt: bench-report: expected benchmark %q missing from %s; recording null metrics\n", name, *in)
		doc.Benchmarks = append(doc.Benchmarks, benchResult{Name: name})
	}
	sort.SliceStable(doc.Benchmarks, func(i, j int) bool {
		return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name
	})
	if *prior != "" {
		if err := mergeTrajectory(&doc, *prior); err != nil {
			return err
		}
	}
	enc, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

// trailingNumber returns the integer ending a file's base name (before
// the extension), e.g. 7 for "BENCH_pr7.json".
func trailingNumber(path string) (int, bool) {
	base := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	i := len(base)
	for i > 0 && base[i-1] >= '0' && base[i-1] <= '9' {
		i--
	}
	if i == len(base) {
		return 0, false
	}
	n, err := strconv.Atoi(base[i:])
	if err != nil {
		return 0, false
	}
	return n, true
}

// nsPoint flattens a report's benchmarks to name → ns/op, skipping
// null-metric placeholders.
func nsPoint(label, source string, benchmarks []benchResult) trajectoryPoint {
	pt := trajectoryPoint{Label: label, Source: source, NsPerOp: map[string]float64{}}
	for _, r := range benchmarks {
		if ns, ok := r.Metrics["ns/op"]; ok {
			pt.NsPerOp[r.Name] = ns
		}
	}
	return pt
}

// mergeTrajectory resolves the -prior file list (commas and globs),
// parses each prior report, and appends the merged cross-PR trajectory
// to doc — priors in file order, this report last — plus a text table
// on stderr. A prior that cannot be parsed fails the merge loudly: a
// silently dropped point would misrepresent the trajectory.
func mergeTrajectory(doc *benchReportDoc, prior string) error {
	var files []string
	for _, pat := range strings.Split(prior, ",") {
		pat = strings.TrimSpace(pat)
		if pat == "" {
			continue
		}
		matches, err := filepath.Glob(pat)
		if err != nil {
			return fmt.Errorf("bad -prior pattern %q: %w", pat, err)
		}
		if len(matches) == 0 {
			fmt.Fprintf(os.Stderr, "hmpt: bench-report: no prior reports match %q; skipping\n", pat)
			continue
		}
		// Chronological, not lexicographic: BENCH_pr10 must sort after
		// BENCH_pr9, so compare the numeric suffix when both have one.
		sort.Slice(matches, func(i, j int) bool {
			ni, iok := trailingNumber(matches[i])
			nj, jok := trailingNumber(matches[j])
			if iok && jok && ni != nj {
				return ni < nj
			}
			if iok != jok {
				return jok // un-numbered names first, numbered run in order
			}
			return matches[i] < matches[j]
		})
		files = append(files, matches...)
	}
	// Overlapping patterns (a glob plus an explicit file it covers) must
	// not produce duplicate trajectory points.
	seen := make(map[string]bool, len(files))
	deduped := files[:0]
	for _, f := range files {
		if seen[f] {
			continue
		}
		seen[f] = true
		deduped = append(deduped, f)
	}
	files = deduped
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return fmt.Errorf("reading prior report: %w", err)
		}
		var p benchReportDoc
		if err := json.Unmarshal(raw, &p); err != nil {
			return fmt.Errorf("parsing prior report %s: %w", f, err)
		}
		label := p.Label
		if label == "" {
			label = filepath.Base(f)
		}
		doc.Trajectory = append(doc.Trajectory, nsPoint(label, filepath.Base(f), p.Benchmarks))
	}
	doc.Trajectory = append(doc.Trajectory, nsPoint(doc.Label, "", doc.Benchmarks))

	// Human-readable trajectory table on stderr: rows are the union of
	// benchmark names, columns the points.
	names := map[string]bool{}
	for _, pt := range doc.Trajectory {
		for n := range pt.NsPerOp {
			names[n] = true
		}
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	cols := []string{"benchmark"}
	for _, pt := range doc.Trajectory {
		cols = append(cols, pt.Label)
	}
	t := report.NewTable(cols...)
	for _, n := range ordered {
		row := []any{n}
		for _, pt := range doc.Trajectory {
			if ns, ok := pt.NsPerOp[n]; ok {
				row = append(row, ns/1e6) // ms/op reads better than ns at this scale
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	fmt.Fprintf(os.Stderr, "cross-PR trajectory (ms/op):\n")
	return t.Write(os.Stderr)
}

// benchCovered reports whether an expected benchmark name is covered by
// a parsed result: an exact match, a GOMAXPROCS suffix ("Name-8"), or a
// sub-benchmark ("Name/gates-8").
func benchCovered(results []benchResult, name string) bool {
	for _, r := range results {
		if r.Name == name || strings.HasPrefix(r.Name, name+"-") || strings.HasPrefix(r.Name, name+"/") {
			return true
		}
	}
	return false
}

// parseBenchLine parses one `BenchmarkName-P  iters  v1 unit1  v2 unit2 ...`
// line; ok is false for anything that is not a benchmark result.
func parseBenchLine(line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchResult{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	res := benchResult{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		res.Metrics[fields[i+1]] = v
	}
	if len(res.Metrics) == 0 {
		return benchResult{}, false
	}
	return res, true
}

func plan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	budgetStr := fs.String("budget", "16GB", "HBM capacity budget (e.g. 16GB)")
	an, err := analyzeWorkload(fs, args)
	if err != nil {
		return err
	}
	budget, err := units.ParseBytes(*budgetStr)
	if err != nil {
		return err
	}
	exact, err := an.BestUnderBudget(budget)
	if err != nil {
		return err
	}
	greedy, err := an.GreedyPlan(budget)
	if err != nil {
		return err
	}
	fmt.Printf("budget %v for %s (%v total)\n\n", budget, an.Workload, an.TotalBytes)
	fmt.Printf("exact   %s: %.2fx using %v HBM\n", exact.Label, exact.Speedup, exact.HBMBytes)
	fmt.Printf("greedy  %s: %.2fx measured (%.2fx predicted) using %v HBM\n",
		greedy.Label, greedy.Speedup, greedy.PredictedSpeedup, greedy.HBMBytes)
	fmt.Println("\nPareto frontier (footprint -> best speedup):")
	for _, c := range an.ParetoFront() {
		fmt.Printf("  %-12s %8v  %.3fx\n", c.Label, c.HBMBytes, c.Speedup)
	}
	return nil
}
