// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each BenchmarkFigN/BenchmarkTableN runs the corresponding
// experiment (reduced-size workload instances; the simulated scale is
// paper scale either way), reports the headline numbers as custom
// metrics, and prints the regenerated series once so the bench log
// doubles as the reproduction record. cmd/paperrepro renders the same
// artefacts with full-size instances outside the bench harness.
package hmpt

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/experiments"
	"hmpt/internal/faultfs"
	"hmpt/internal/ibs"
	"hmpt/internal/memsim"
	"hmpt/internal/server"
	"hmpt/internal/shard"
	"hmpt/internal/shim"
	"hmpt/internal/trace"
	"hmpt/internal/units"
	"hmpt/internal/workloads"
	"hmpt/internal/workloads/synth"
	"hmpt/internal/xrand"
)

var printOnce sync.Map

// once prints s a single time per key across bench iterations.
func once(key, s string) {
	if _, dup := printOnce.LoadOrStore(key, true); !dup {
		fmt.Print(s)
	}
}

func platform() *memsim.Platform { return memsim.XeonMax9468() }

func figSeries(fig *experiments.Figure) string {
	s := fmt.Sprintf("\n== %s: %s ==\n", fig.ID, fig.Title)
	for _, ser := range fig.Series {
		s += fmt.Sprintf("%-18s", ser.Name)
		for i := range ser.X {
			s += fmt.Sprintf(" (%.3g, %.4g)", ser.X[i], ser.Y[i])
		}
		s += "\n"
	}
	return s
}

func BenchmarkFig2StreamScaling(b *testing.B) {
	p := platform()
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig2(p)
		if err != nil {
			b.Fatal(err)
		}
		last = fig
	}
	ddr := last.Series[0].Y
	hbm := last.Series[1].Y
	b.ReportMetric(ddr[len(ddr)-1], "DDR-GB/s")
	b.ReportMetric(hbm[len(hbm)-1], "HBM-GB/s")
	once("fig2", figSeries(last))
}

func BenchmarkFig3LatencyWindow(b *testing.B) {
	p := platform()
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig3(p)
		if err != nil {
			b.Fatal(err)
		}
		last = fig
	}
	d := last.Series[0].Y
	h := last.Series[1].Y
	b.ReportMetric(d[len(d)-1], "DDR-ns")
	b.ReportMetric(h[len(h)-1], "HBM-ns")
	b.ReportMetric(h[len(h)-1]/d[len(d)-1], "HBM/DDR-latency")
	once("fig3", figSeries(last))
}

func BenchmarkFig4RandomAccess(b *testing.B) {
	p := platform()
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig4(p)
		if err != nil {
			b.Fatal(err)
		}
		last = fig
	}
	sum := last.Series[0].Y
	b.ReportMetric(sum[len(sum)-1], "indirect-sum-speedup@12tpt")
	b.ReportMetric(last.Series[1].Y[0], "chase-speedup")
	once("fig4", figSeries(last))
}

func BenchmarkFig5aCopyPlacement(b *testing.B) {
	p := platform()
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig5a(p)
		if err != nil {
			b.Fatal(err)
		}
		last = fig
	}
	at12 := map[string]float64{}
	for _, s := range last.Series {
		at12[s.Name] = s.Y[len(s.Y)-1]
	}
	b.ReportMetric(at12["HBM→DDR"]/at12["DDR→HBM"], "HBMtoDDR/DDRtoHBM")
	once("fig5a", figSeries(last))
}

func BenchmarkFig5bAddPlacement(b *testing.B) {
	p := platform()
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig5b(p)
		if err != nil {
			b.Fatal(err)
		}
		last = fig
	}
	once("fig5b", figSeries(last))
}

func BenchmarkFig7aMGDetailed(b *testing.B) {
	p := platform()
	for i := 0; i < b.N; i++ {
		an, rows, err := experiments.Fig7a(p, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			max, _ := an.MaxSpeedup()
			b.ReportMetric(max, "max-speedup")
			s := "\n== Fig7a: MG detailed view ==\nconfig  speedup  est  hbm-usage  samples\n"
			for _, r := range rows {
				s += fmt.Sprintf("%-8s %.3f  %.3f  %.3f  %.3f\n", r.Label, r.Speedup, r.EstSpeedup, r.HBMUsage, r.Samples)
			}
			once("fig7a", s)
		}
	}
}

func summaryBench(b *testing.B, id, workload string) {
	b.Helper()
	p := platform()
	for i := 0; i < b.N; i++ {
		spec, err := experiments.SpecFor(workload)
		if err != nil {
			b.Fatal(err)
		}
		an, err := experiments.Analyze(spec, p, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			row := an.TableIIRow()
			b.ReportMetric(row.MaxSpeedup, "max-speedup")
			b.ReportMetric(row.HBMOnlySpeedup, "hbm-only-speedup")
			b.ReportMetric(row.NinetyUsage, "90pct-hbm-usage")
			fig := experiments.SummaryFigure(id, workload+" summary", an)
			once(id, figSeries(fig))
		}
	}
}

func BenchmarkFig7bMGSummary(b *testing.B) { summaryBench(b, "Fig7b", "npb.mg") }
func BenchmarkFig9MG(b *testing.B)         { summaryBench(b, "Fig9", "npb.mg") }
func BenchmarkFig10UA(b *testing.B)        { summaryBench(b, "Fig10", "npb.ua") }
func BenchmarkFig11SP(b *testing.B)        { summaryBench(b, "Fig11", "npb.sp") }
func BenchmarkFig12BT(b *testing.B)        { summaryBench(b, "Fig12", "npb.bt") }
func BenchmarkFig13LU(b *testing.B)        { summaryBench(b, "Fig13", "npb.lu") }
func BenchmarkFig14IS(b *testing.B)        { summaryBench(b, "Fig14", "npb.is") }
func BenchmarkFig15KWave(b *testing.B)     { summaryBench(b, "Fig15", "kwave") }

func BenchmarkFig8Roofline(b *testing.B) {
	p := platform()
	for i := 0; i < b.N; i++ {
		model, err := experiments.Fig8(p, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			s := "\n== Fig8: roofline ==\n"
			for _, c := range model.Ceilings {
				if c.GBps > 0 {
					s += fmt.Sprintf("ceiling %-22s %8.1f GB/s\n", c.Name, c.GBps)
				} else {
					s += fmt.Sprintf("ceiling %-22s %8.1f GFLOP/s\n", c.Name, c.GFlops)
				}
			}
			for _, pt := range model.Points {
				s += fmt.Sprintf("point   %-22s AI=%.4f  %.1f GFLOP/s\n", pt.Name, pt.AI, pt.GFlops)
			}
			once("fig8", s)
			ridge, err := model.Ridge("HBM BW")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(ridge, "HBM-ridge-AI")
		}
	}
}

func BenchmarkTable1Configs(b *testing.B) {
	p := platform()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(p, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			s := "\n== Table I: benchmark configurations ==\nworkload    mem[GB]  filtered-allocs  total-allocs\n"
			for _, r := range rows {
				s += fmt.Sprintf("%-10s  %7.2f  %15d  %12d\n", r.Workload, r.MemoryUsage.GBs(), r.FilteredAllocs, r.TotalAllocs)
			}
			once("table1", s)
		}
	}
}

func BenchmarkTable2Summary(b *testing.B) {
	p := platform()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(p, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			s := "\n== Table II: tuning summary ==\nworkload    max-speedup  hbm-only  90%-usage\n"
			for _, r := range rows {
				s += fmt.Sprintf("%-10s  %11.2f  %8.2f  %8.1f%%\n", r.Workload, r.MaxSpeedup, r.HBMOnlySpeedup, r.NinetyUsage*100)
			}
			once("table2", s)
		}
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks: design choices DESIGN.md calls out.
// ---------------------------------------------------------------------

// BenchmarkAblationLinearEstimator measures the accuracy of the paper's
// independence assumption (§III-A): mean absolute relative error of the
// linear combination estimate against measured speedups, across all
// multi-group configurations of every benchmark.
func BenchmarkAblationLinearEstimator(b *testing.B) {
	p := platform()
	for i := 0; i < b.N; i++ {
		var sumErr float64
		var n int
		for _, spec := range experiments.Specs() {
			an, err := experiments.Analyze(spec, p, true)
			if err != nil {
				b.Fatal(err)
			}
			for _, cfg := range an.Configs {
				if len(cfg.Groups) < 2 {
					continue
				}
				e := cfg.EstSpeedup/cfg.Speedup - 1
				if e < 0 {
					e = -e
				}
				sumErr += e
				n++
			}
		}
		if i == b.N-1 {
			b.ReportMetric(sumErr/float64(n)*100, "mean-abs-rel-err-%")
			once("abl-est", fmt.Sprintf("\n== Ablation: linear estimator error over %d combo configs: %.2f%% ==\n",
				n, sumErr/float64(n)*100))
		}
	}
}

// BenchmarkAblationGroupBudget compares the paper's 8-group budget with
// a 4-group budget on UA (56 allocations): how much of the achievable
// speedup the coarser configuration space loses.
func BenchmarkAblationGroupBudget(b *testing.B) {
	p := platform()
	for i := 0; i < b.N; i++ {
		spec, err := experiments.SpecFor("npb.ua")
		if err != nil {
			b.Fatal(err)
		}
		opts8 := spec.Options
		opts8.Platform = p
		an8, err := core.New(spec.Fast(), opts8).Analyze()
		if err != nil {
			b.Fatal(err)
		}
		opts4 := spec.Options
		opts4.Platform = p
		opts4.MaxGroups = 4
		an4, err := core.New(spec.Fast(), opts4).Analyze()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			m8, _ := an8.MaxSpeedup()
			m4, _ := an4.MaxSpeedup()
			b.ReportMetric(m8, "max-8-groups")
			b.ReportMetric(m4, "max-4-groups")
			once("abl-groups", fmt.Sprintf("\n== Ablation: UA max speedup with 8 groups %.3fx vs 4 groups %.3fx ==\n", m8, m4))
		}
	}
}

// BenchmarkAblationNoise sweeps the measurement-noise level and reports
// how often 3-run averaging misranks two adjacent MG configurations —
// the paper's reason for averaging over n runs per configuration.
func BenchmarkAblationNoise(b *testing.B) {
	p := platform()
	for i := 0; i < b.N; i++ {
		spec, err := experiments.SpecFor("npb.mg")
		if err != nil {
			b.Fatal(err)
		}
		var out string
		for _, runs := range []int{1, 3, 9} {
			opts := spec.Options
			opts.Platform = p
			opts.Runs = runs
			misranks := 0
			const trials = 5
			for trial := 0; trial < trials; trial++ {
				opts.Seed = uint64(1000 + trial)
				an, err := core.New(spec.Fast(), opts).Analyze()
				if err != nil {
					b.Fatal(err)
				}
				// Ground truth on MG: solo(u) > solo(r) > solo(v).
				if !(an.Groups[0].SoloSpeedup >= an.Groups[1].SoloSpeedup &&
					an.Groups[1].SoloSpeedup >= an.Groups[2].SoloSpeedup) {
					misranks++
				}
			}
			out += fmt.Sprintf("runs=%d misrank-rate=%d/%d\n", runs, misranks, trials)
		}
		if i == b.N-1 {
			once("abl-noise", "\n== Ablation: run-count vs ranking stability (MG) ==\n"+out)
		}
	}
}

// ---------------------------------------------------------------------
// Sweep-engine benchmarks: the hot path under every figure and table.
// ---------------------------------------------------------------------

// sweepBenchSetup runs the npb.bt reduced instance once and returns its
// machine, canonical trace, and tuned allocation groups — the paper's
// 8-group / 256-configuration sweep shape over the trace a capture
// compiles (core.executeReference canonicalises before anything else
// sees the trace). The raw recorder trace is measured by
// BenchmarkDedupSweep's raw-10x sweep.
func sweepBenchSetup(b *testing.B) (*memsim.Machine, *trace.Trace, []core.Group) {
	b.Helper()
	spec, err := experiments.SpecFor("npb.bt")
	if err != nil {
		b.Fatal(err)
	}
	an, err := experiments.Analyze(spec, platform(), true)
	if err != nil {
		b.Fatal(err)
	}
	w := spec.Fast()
	env := workloads.NewEnv(0, 1, 1)
	if err := w.Setup(env); err != nil {
		b.Fatal(err)
	}
	if err := w.Run(env); err != nil {
		b.Fatal(err)
	}
	return memsim.NewMachine(platform()), env.Rec.Trace().Canonical(), an.Groups
}

func sweepBenchPlacement(p *memsim.Platform, groups []core.Group, mask uint32) *memsim.SimplePlacement {
	pl := memsim.NewSimplePlacement(len(p.Pools), p.MustPool(memsim.DDR))
	hbm := p.MustPool(memsim.HBM)
	for gi := range groups {
		if mask&(1<<uint(gi)) == 0 {
			continue
		}
		for _, id := range groups[gi].Allocs {
			pl.Set(id, hbm)
		}
	}
	return pl
}

// BenchmarkSweepEngine compares one full 2^|AG| deterministic sweep on
// the compiled engine (including compilation, Gray-code incremental
// evaluation) against the naive path costing every mask from scratch.
// The "naive/engine-speedup" metric is the per-sweep ratio.
func BenchmarkSweepEngine(b *testing.B) {
	m, tr, groups := sweepBenchSetup(b)
	ddr := m.P.MustPool(memsim.DDR)
	hbm := m.P.MustPool(memsim.HBM)
	sets := make([][]shim.AllocID, len(groups))
	for gi := range groups {
		sets[gi] = groups[gi].Allocs
	}
	nMasks := uint32(1) << uint(len(groups))
	var sink units.Duration

	var engineNs, naiveNs float64
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev, err := m.CompileSweep(tr, 0, sets, ddr)
			if err != nil {
				b.Fatal(err)
			}
			det := ev.EvalMask(0, ddr, hbm)
			for g := uint32(1); g < nMasks; g++ {
				bit := bits.TrailingZeros32(g)
				mask := g ^ (g >> 1)
				to := ddr
				if mask&(1<<uint(bit)) != 0 {
					to = hbm
				}
				det = ev.Flip(bit, to)
			}
			sink += det
		}
		engineNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for mask := uint32(0); mask < nMasks; mask++ {
				res, err := m.Cost(tr, sweepBenchPlacement(m.P, groups, mask), 0, nil)
				if err != nil {
					b.Fatal(err)
				}
				sink += res.Time
			}
		}
		naiveNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if engineNs > 0 && naiveNs > 0 {
		once("sweep-engine", fmt.Sprintf("\n== SweepEngine: %d masks, naive %.2fms vs engine %.3fms: %.0fx ==\n",
			nMasks, naiveNs/1e6, engineNs/1e6, naiveNs/engineNs))
	}
	_ = sink
}

// BenchmarkCostAllocs measures allocation behaviour of the two costing
// paths with testing.AllocsPerRun: the engine's sweep inner loop (flip +
// full mask evaluation) must be allocation-free, and the legacy
// Machine.Cost path must stay flat (per-call scratch, not per-stream).
func BenchmarkCostAllocs(b *testing.B) {
	m, tr, groups := sweepBenchSetup(b)
	ddr := m.P.MustPool(memsim.DDR)
	hbm := m.P.MustPool(memsim.HBM)
	sets := make([][]shim.AllocID, len(groups))
	for gi := range groups {
		sets[gi] = groups[gi].Allocs
	}
	ev, err := m.CompileSweep(tr, 0, sets, ddr)
	if err != nil {
		b.Fatal(err)
	}
	var sink units.Duration
	sweepAllocs := testing.AllocsPerRun(100, func() {
		sink += ev.Flip(3, hbm)
		sink += ev.Flip(3, ddr)
		sink += ev.EvalMask(0x55, ddr, hbm)
	})
	pl := sweepBenchPlacement(m.P, groups, 0x55)
	costAllocs := testing.AllocsPerRun(100, func() {
		res, err := m.Cost(tr, pl, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		sink += res.Time
	})
	b.ReportMetric(sweepAllocs, "sweep-allocs/op")
	b.ReportMetric(costAllocs, "cost-allocs/op")
	if sweepAllocs != 0 {
		b.Errorf("sweep inner loop allocates %.1f allocs/op, want 0", sweepAllocs)
	}
	for i := 0; i < b.N; i++ {
		sink += ev.EvalMask(uint32(i)&(1<<uint(len(groups))-1), ddr, hbm)
	}
	_ = sink
}

// BenchmarkCampaignMatrix measures the campaign engine on the full
// benchmark set × both platform presets (14 cells from 7 reference
// captures) against the naive path that re-executes every cell's kernel
// through a live Tuner.Analyze. The engine executes each kernel once
// per matrix; "kernels-saved" is the per-sweep reduction in real kernel
// executions.
func BenchmarkCampaignMatrix(b *testing.B) {
	matrix := experiments.CampaignMatrix(platform(), true)
	matrix.Platforms = append(matrix.Platforms,
		campaign.Platform{Name: "dual", Platform: memsim.DualXeonMax9468()})
	cells := len(matrix.Workloads) * len(matrix.Platforms)

	var engineNs, naiveNs float64
	var saved int64
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := (&campaign.Engine{}).Run(matrix)
			if err != nil {
				b.Fatal(err)
			}
			if err := res.Err(); err != nil {
				b.Fatal(err)
			}
			saved = int64(cells) - res.Work.Kernels
		}
		b.ReportMetric(float64(saved), "kernels-saved")
		engineNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range matrix.Workloads {
				for _, p := range matrix.Platforms {
					opts := w.Options
					opts.Platform = p.Platform
					if _, err := core.New(w.Factory(), opts).Analyze(); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		naiveNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if engineNs > 0 && naiveNs > 0 {
		once("campaign", fmt.Sprintf("\n== Campaign: %d cells, naive %.1fms vs engine %.1fms (%.2fx), %d kernel executions saved per matrix ==\n",
			cells, naiveNs/1e6, engineNs/1e6, naiveNs/engineNs, saved))
	}
}

// BenchmarkReplayContextReuse compares replaying one captured reference
// run many times the per-replay way (each replay re-restores the
// registry, re-copies the trace, re-reconstructs the sampling report
// and re-compiles both sweep evaluators) against the shared-context way
// (one core.ReplayContext, built once, cloned evaluators per replay).
// The two paths are byte-identical (context_equiv_test.go); this
// benchmark measures what the sharing is worth per campaign cell.
// "shared" also gates the allocation count of one shared-context
// analysis: it must stay below the analysis' configuration count, so no
// per-configuration allocation can creep back into the sweep (a count,
// not a timing).
func BenchmarkReplayContextReuse(b *testing.B) {
	spec, err := experiments.SpecFor("npb.bt")
	if err != nil {
		b.Fatal(err)
	}
	opts := spec.Options
	opts.Platform = platform()
	snap, err := core.Capture(spec.Fast(), opts)
	if err != nil {
		b.Fatal(err)
	}

	var freshNs, sharedNs float64
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewReplay(snap, opts).Analyze(); err != nil {
				b.Fatal(err)
			}
		}
		freshNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("shared", func(b *testing.B) {
		ctx, err := core.NewContext(snap)
		if err != nil {
			b.Fatal(err)
		}
		// Prime the context's memos so the steady state is measured —
		// cell 2..N of a campaign, not cell 1.
		an, err := core.NewContextReplay(ctx, opts).Analyze()
		if err != nil {
			b.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := core.NewContextReplay(ctx, opts).Analyze(); err != nil {
				b.Fatal(err)
			}
		})
		if bound := float64(len(an.Configs)); allocs >= bound {
			b.Errorf("a shared-context %s analysis makes %.0f allocations, want < %.0f (one per configuration)",
				an.Workload, allocs, bound)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.NewContextReplay(ctx, opts).Analyze(); err != nil {
				b.Fatal(err)
			}
		}
		sharedNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(allocs, "analyze-allocs/op")
		if freshNs > 0 && sharedNs > 0 {
			b.ReportMetric(freshNs/sharedNs, "fresh/shared-speedup")
			once("ctx-reuse", fmt.Sprintf("\n== ReplayContextReuse: per-replay %.3fms vs shared context %.3fms per cell: %.2fx ==\n",
				freshNs/1e6, sharedNs/1e6, freshNs/sharedNs))
		}
	})
}

// BenchmarkWarmCampaignPlacementFree is PR 4's headline: with the
// process-wide experiments flight group warm, regenerating Table II serves
// every cell straight from the analysis cache — zero kernel executions,
// zero sampling passes, zero probe/sweep placement passes (all three
// counters gated) — and one warm regeneration must run at least 2x
// faster than PR 3's ~2.1 ms/op warm baseline (gated at 1.05 ms/op).
func BenchmarkWarmCampaignPlacementFree(b *testing.B) {
	p := platform()
	if _, err := experiments.Table2(p, true); err != nil {
		b.Fatal(err) // cold fill of the shared flight group
	}
	// The gated regenerations are experiments.Table2 spelled out, so
	// their work lands on a ledger.
	lctx, led := ledgerContext()
	warmNs := minSampleNs(b, 5, func(uint64) {
		res, err := experiments.CampaignEngine().RunContext(lctx, experiments.CampaignMatrix(p, true))
		if err == nil {
			_, err = experiments.Table2Campaign(res)
		}
		if err != nil {
			b.Fatal(err)
		}
	})
	if got := led.Work().Kernels; got != 0 {
		b.Errorf("warm Table II executed %d kernels, want 0", got)
	}
	if got := led.Work().SamplePasses; got != 0 {
		b.Errorf("warm Table II ran %d sampling passes, want 0", got)
	}
	if got := led.Work().SweepEvaluations; got != 0 {
		b.Errorf("warm Table II ran %d probe/sweep placement passes, want 0", got)
	}
	const gateNs = 1.05e6 // 2x over the PR 3 warm baseline of ~2.1 ms
	if warmNs > gateNs {
		b.Errorf("warm Table II takes %.3f ms/op, gate is %.2f ms (2x over the PR 3 ~2.1 ms baseline)",
			warmNs/1e6, gateNs/1e6)
	}
	once("warm-campaign", fmt.Sprintf("\n== WarmCampaignPlacementFree: warm Table II %.3fms/op, 0 kernels / 0 sampling / 0 placement passes ==\n",
		warmNs/1e6))
	// Exclude the cold fill and the gating samples above: ns/op must
	// record the warm op itself, or the BENCH_prN.json trajectory would
	// misreport the headline by the cold cost at -benchtime=1x.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(p, true); err != nil {
			b.Fatal(err)
		}
	}
	// After the timed loop: ResetTimer also clears previously-reported
	// custom metrics, so the headline metric must be (re-)reported here
	// to reach the output and the JSON artifact.
	b.ReportMetric(warmNs/1e6, "warm-table2-ms")
}

// ---------------------------------------------------------------------
// Sampling-engine benchmarks: the IBS pass under every analysis.
// ---------------------------------------------------------------------

// ibsBenchSetup runs the npb.bt reduced instance once and returns the
// allocator, trace and machine a sampling pass needs.
func ibsBenchSetup(b *testing.B) (*shim.Allocator, *trace.Trace, *memsim.Machine) {
	b.Helper()
	spec, err := experiments.SpecFor("npb.bt")
	if err != nil {
		b.Fatal(err)
	}
	w := spec.Fast()
	env := workloads.NewEnv(0, 1, 1)
	if err := w.Setup(env); err != nil {
		b.Fatal(err)
	}
	if err := w.Run(env); err != nil {
		b.Fatal(err)
	}
	return env.Alloc, env.Rec.Trace(), memsim.NewMachine(platform())
}

// minSampleNs times fn over a fixed number of repetitions and returns
// the fastest, so the gate ratio below never depends on -benchtime (at
// 1x in CI a single cold iteration would leave the threshold almost no
// noise headroom).
func minSampleNs(b *testing.B, reps int, fn func(seed uint64)) float64 {
	b.Helper()
	best := math.MaxFloat64
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn(uint64(i) + 1)
		if ns := float64(time.Since(start).Nanoseconds()); ns < best {
			best = ns
		}
	}
	return best
}

// BenchmarkIBSSample compares the batched sampling engine against the
// per-sample reference loop on the BT trace under the all-DDR reference
// placement. The engine must be at least 20× faster (it is
// O(streams × pools) where the reference is O(samples)) and its
// per-stream loop must not allocate: sampling a trace with 8× the
// phases must cost exactly the same allocations as sampling the
// original. Both gates fail the benchmark, like BenchmarkCostAllocs,
// and both are evaluated in the "gates" sub-benchmark — metrics
// reported on a parent that calls b.Run never reach the output.
func BenchmarkIBSSample(b *testing.B) {
	al, tr, m := ibsBenchSetup(b)
	pl := memsim.NewSimplePlacement(len(m.P.Pools), m.P.MustPool(memsim.DDR))
	s := ibs.NewSampler()
	var total int
	// Scoped per top-level invocation (fresh for each -count/-cpu run)
	// while still deduplicating the "gates" sub-benchmark's b.N ramp-up.
	var gates struct {
		once       sync.Once
		speedup    float64
		allocDelta float64
	}

	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := s.Sample(tr, al, m, pl, xrand.New(uint64(i)+1))
			if err != nil {
				b.Fatal(err)
			}
			total = rep.Total
		}
		b.ReportMetric(float64(total), "samples")
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.SampleReference(tr, al, m, pl, xrand.New(uint64(i)+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gates", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
		}
		// The framework re-invokes the body while ramping b.N; the gate
		// measurements are expensive (13 sampling passes + AllocsPerRun
		// on an 8x trace), so compute them once and re-report the cached
		// values on every invocation — the final one is what prints.
		gates.once.Do(func() {
			engineNs := minSampleNs(b, 10, func(seed uint64) {
				if _, err := s.Sample(tr, al, m, pl, xrand.New(seed)); err != nil {
					b.Fatal(err)
				}
			})
			refNs := minSampleNs(b, 3, func(seed uint64) {
				if _, err := s.SampleReference(tr, al, m, pl, xrand.New(seed)); err != nil {
					b.Fatal(err)
				}
			})
			gates.speedup = refNs / engineNs
			once("ibs-sample", fmt.Sprintf("\n== IBSSample: %d samples, reference %.3fms vs engine %.4fms: %.0fx ==\n",
				total, refNs/1e6, engineNs/1e6, gates.speedup))

			// Allocation gate: the engine's per-phase/per-stream loop
			// must be allocation-free, so allocations cannot grow with
			// trace length.
			tr8 := &trace.Trace{}
			for i := 0; i < 8; i++ {
				tr8.Phases = append(tr8.Phases, tr.Phases...)
			}
			allocs1 := testing.AllocsPerRun(10, func() {
				if _, err := s.Sample(tr, al, m, pl, xrand.New(1)); err != nil {
					b.Fatal(err)
				}
			})
			allocs8 := testing.AllocsPerRun(10, func() {
				if _, err := s.Sample(tr8, al, m, pl, xrand.New(1)); err != nil {
					b.Fatal(err)
				}
			})
			gates.allocDelta = allocs8 - allocs1
		})
		b.ReportMetric(gates.speedup, "reference/engine-speedup")
		b.ReportMetric(gates.allocDelta, "per-stream-allocs/op")
		if gates.speedup < 20 {
			b.Errorf("batched engine only %.1fx faster than the per-sample reference, want >= 20x", gates.speedup)
		}
		if gates.allocDelta > 0 {
			b.Errorf("engine allocates in the per-stream loop: %.1f extra allocs on an 8x trace", gates.allocDelta)
		}
	})
}

// BenchmarkOnlineTuning runs the dynamic extension (§III "online
// profiling and control"): greedy migration converging toward the
// offline optimum without measuring the exhaustive configuration space.
func BenchmarkOnlineTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.TuneOnline(synth.Default(), core.OnlineOptions{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.FinalSpeedup, "final-speedup")
			b.ReportMetric(float64(len(res.Epochs)), "epochs")
			b.ReportMetric(res.AmortisationEpochs, "amortisation-epochs")
			s := "\n== Online tuning (synth) ==\n"
			for _, e := range res.Epochs {
				s += fmt.Sprintf("epoch %d: moved %-12q speedup %.3f hbm %v migration %v\n",
					e.Epoch, e.Moved, e.Speedup, e.HBMUsed, e.MigrationCost)
			}
			once("online", s)
		}
	}
}

// ---------------------------------------------------------------------
// Phase-deduplication benchmarks: the O(unique phases) contract.
// ---------------------------------------------------------------------

// dedupBenchTrace runs the npb.bt reduced instance at the given
// iteration count and returns the raw recorded trace, its canonical
// deduplicated form (what the pipeline actually consumes), and the
// environment.
func dedupBenchTrace(b *testing.B, iters int) (raw, canonical *trace.Trace, env *workloads.Env) {
	b.Helper()
	spec, err := experiments.SpecFor("npb.bt")
	if err != nil {
		b.Fatal(err)
	}
	w := spec.Fast()
	env = workloads.NewEnv(0, 1, 1)
	env.Iterations = iters
	if err := w.Setup(env); err != nil {
		b.Fatal(err)
	}
	if err := w.Run(env); err != nil {
		b.Fatal(err)
	}
	raw = env.Rec.Trace()
	return raw, raw.Canonical(), env
}

// sweep256 compiles the trace and walks all 256 masks in Gray-code
// order, returning the elapsed wall time of the best of reps runs.
func sweep256(b *testing.B, m *memsim.Machine, tr *trace.Trace, sets [][]shim.AllocID, reps int) float64 {
	b.Helper()
	ddr := m.P.MustPool(memsim.DDR)
	hbm := m.P.MustPool(memsim.HBM)
	var sink units.Duration
	ns := minSampleNs(b, reps, func(uint64) {
		ev, err := m.CompileSweep(tr, 0, sets, ddr)
		if err != nil {
			b.Fatal(err)
		}
		det := ev.EvalMask(0, ddr, hbm)
		for g := uint32(1); g < 256; g++ {
			bit := bits.TrailingZeros32(g)
			mask := g ^ (g >> 1)
			to := ddr
			if mask&(1<<uint(bit)) != 0 {
				to = hbm
			}
			det = ev.Flip(bit, to)
		}
		sink += det
	})
	_ = sink
	return ns
}

// BenchmarkDedupSweep is the tentpole's sweep gate: a 256-mask sweep
// over the canonical trace of a 10x-iteration BT run must cost within
// 1.3x of the 1x-iteration sweep — the phase count, and therefore the
// compile and per-mask work, is identical; only the repeat multipliers
// differ. The raw (pre-dedup) 10x sweep is reported for scale.
func BenchmarkDedupSweep(b *testing.B) {
	_, can1, _ := dedupBenchTrace(b, 0) // fast-instance default: 3 iterations
	raw10, can10, _ := dedupBenchTrace(b, 30)
	m := memsim.NewMachine(platform())
	// An 8-group partition in the paper's sweep shape: the analysis
	// groups of the 1x run (allocation IDs are identical across runs —
	// same Setup in a fresh environment).
	spec, err := experiments.SpecFor("npb.bt")
	if err != nil {
		b.Fatal(err)
	}
	an, err := experiments.Analyze(spec, platform(), true)
	if err != nil {
		b.Fatal(err)
	}
	sets := make([][]shim.AllocID, len(an.Groups))
	for gi := range an.Groups {
		sets[gi] = an.Groups[gi].Allocs
	}

	ns1 := sweep256(b, m, can1, sets, 5)
	ns10 := sweep256(b, m, can10, sets, 5)
	nsRaw10 := sweep256(b, m, raw10, sets, 3)
	b.ReportMetric(float64(len(raw10.Phases)), "raw-phases")
	b.ReportMetric(float64(len(can10.Phases)), "dedup-phases")
	b.ReportMetric(ns10/ns1, "10x/1x-sweep-ratio")
	b.ReportMetric(nsRaw10/ns10, "raw/dedup-sweep-ratio")
	if ratio := ns10 / ns1; ratio > 1.3 {
		b.Errorf("256-mask sweep over the 10x-iteration canonical trace costs %.2fx the 1x sweep, gate is 1.3x", ratio)
	}
	once("dedup-sweep", fmt.Sprintf("\n== DedupSweep: 10x-iteration BT trace %d raw phases -> %d canonical; 256-mask sweep %.3fms (1x %.3fms, raw-10x %.3fms) ==\n",
		len(raw10.Phases), len(can10.Phases), ns10/1e6, ns1/1e6, nsRaw10/1e6))
	for i := 0; i < b.N; i++ {
	}
}

// BenchmarkDedupSnapshotSize gates the snapshot-size half of the
// tentpole: the canonical capture of a 10x-iteration BT run must encode
// at least 3x smaller than the same capture carrying the raw phase
// sequence (what the pre-dedup pipeline stored).
func BenchmarkDedupSnapshotSize(b *testing.B) {
	spec, err := experiments.SpecFor("npb.bt")
	if err != nil {
		b.Fatal(err)
	}
	opts := spec.Options
	opts.Iterations = 30 // 10x the fast instance's 3
	snap, err := core.Capture(spec.Fast(), opts)
	if err != nil {
		b.Fatal(err)
	}
	canonical, err := snap.EncodeBytes()
	if err != nil {
		b.Fatal(err)
	}
	raw10, _, env := dedupBenchTrace(b, 30)
	rawSnap := &trace.Snapshot{Meta: snap.Meta, Registry: env.Alloc.Export(), Trace: raw10, Samples: snap.Samples}
	raw, err := rawSnap.EncodeBytes()
	if err != nil {
		b.Fatal(err)
	}
	ratio := float64(len(raw)) / float64(len(canonical))
	b.ReportMetric(float64(len(canonical)), "dedup-bytes")
	b.ReportMetric(float64(len(raw)), "raw-bytes")
	b.ReportMetric(ratio, "raw/dedup-size")
	if ratio < 3 {
		b.Errorf("canonical 10x-iteration snapshot is only %.2fx smaller than the raw encoding (%d vs %d bytes), gate is 3x",
			ratio, len(canonical), len(raw))
	}
	once("dedup-snap", fmt.Sprintf("\n== DedupSnapshotSize: 10x-iteration BT capture %d bytes canonical vs %d raw (%.1fx) ==\n",
		len(canonical), len(raw), ratio))
	for i := 0; i < b.N; i++ {
	}
}

// BenchmarkColdReplay10x isolates the cold post-kernel pipeline at
// paper-scale iteration counts: one 10x-iteration BT capture, then
// fresh (context-free, cache-free) replays — registry restore, report
// reconstruction, grouping, probes and the 256-mask sweep all cold,
// zero kernel executions. PR 4's pipeline measured ~1.7 ms/op here (180
// trace phases); the deduplicated pipeline ~0.37 ms/op (6 phases,
// ~4.5x) on the 1-core reference container. Gated at 0.9 ms — roughly
// half the PR 4 cost with headroom for runner noise.
func BenchmarkColdReplay10x(b *testing.B) {
	spec, err := experiments.SpecFor("npb.bt")
	if err != nil {
		b.Fatal(err)
	}
	opts := spec.Options
	opts.Iterations = 30 // 10x the fast instance's 3
	snap, err := core.Capture(spec.Fast(), opts)
	if err != nil {
		b.Fatal(err)
	}
	ns := minSampleNs(b, 5, func(uint64) {
		if _, err := core.NewReplay(snap, opts).Analyze(); err != nil {
			b.Fatal(err)
		}
	})
	b.ReportMetric(ns/1e6, "cold-replay-ms")
	b.ReportMetric(float64(len(snap.Trace.Phases)), "phases")
	const gateNs = 0.9e6
	if ns > gateNs {
		b.Errorf("cold 10x-iteration replay takes %.3f ms/op, gate is %.1f ms (PR 4 baseline was ~1.7 ms)", ns/1e6, gateNs/1e6)
	}
	once("cold-replay", fmt.Sprintf("\n== ColdReplay10x: kernel-free 10x-iteration BT analysis %.3fms/op over %d phases ==\n",
		ns/1e6, len(snap.Trace.Phases)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewReplay(snap, opts).Analyze(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ns/1e6, "cold-replay-ms")
}

// BenchmarkColdTable2 measures the fully cold Table II regeneration — a
// fresh campaign engine with no shared group and no caches, every kernel
// executed, every cell analysed from scratch. Profiling shows this cost
// is almost entirely real kernel arithmetic at the default iteration
// counts (~41 ms/op on the 1-core reference container, unchanged from
// PR 4 within noise — the post-kernel stages dedup accelerates were
// already ~1 ms of it; BenchmarkColdReplay10x is where the cold win is
// visible). Gated at a generous 100 ms absolute bound (~2.4x headroom) so a real cold
// regression fails CI without flaking on runner noise.
func BenchmarkColdTable2(b *testing.B) {
	p := platform()
	matrix := experiments.CampaignMatrix(p, true)
	coldNs := minSampleNs(b, 3, func(uint64) {
		res, err := (&campaign.Engine{}).Run(matrix)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Table2Campaign(res); err != nil {
			b.Fatal(err)
		}
	})
	b.ReportMetric(coldNs/1e6, "cold-table2-ms")
	const gateNs = 100e6 // ~2.4x over the ~41 ms reference-container cost
	if coldNs > gateNs {
		b.Errorf("cold Table II takes %.1f ms/op, gate is %.0f ms", coldNs/1e6, gateNs/1e6)
	}
	once("cold-table2", fmt.Sprintf("\n== ColdTable2: fully cold Table II campaign %.1fms/op ==\n", coldNs/1e6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := (&campaign.Engine{}).Run(matrix)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Table2Campaign(res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(coldNs/1e6, "cold-table2-ms")
}

// BenchmarkColdTable2Workers measures the cold Table II campaign at
// pinned worker counts and reports throughput as cells/sec — the
// measured multi-core scaling curve of the bench trajectory. Every run
// is fully cold (fresh engine, no shared group, no caches), so the workers fan
// out over real kernel executions and analyses. On the 1-core reference
// container the curve is honestly flat (GOMAXPROCS=1 serialises the
// goroutines); the >1.5x-at-4-workers expectation is enforced by the CI
// multi-core scaling job, which runs this same benchmark on a larger
// runner.
func BenchmarkColdTable2Workers(b *testing.B) {
	p := platform()
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			matrix := experiments.CampaignMatrix(p, true)
			cells := len(matrix.Workloads) * len(matrix.Platforms)
			run := func() {
				res, err := (&campaign.Engine{Parallelism: workers}).Run(matrix)
				if err != nil {
					b.Fatal(err)
				}
				if err := res.Err(); err != nil {
					b.Fatal(err)
				}
			}
			coldNs := minSampleNs(b, 3, func(uint64) { run() })
			once(fmt.Sprintf("cold-table2-w%d", workers),
				fmt.Sprintf("\n== ColdTable2Workers/w%d: %d cells in %.1fms (%.1f cells/sec) ==\n",
					workers, cells, coldNs/1e6, float64(cells)/(coldNs/1e9)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(cells)/(coldNs/1e9), "cells/sec")
		})
	}
}

// BenchmarkDeriveSnapshot compares synthesizing a high-iteration BT
// capture from a family base (trace rewrite + deterministic count pass,
// zero kernel executions) against really capturing it — the per-member
// saving the campaign planner banks for every non-base cell of an
// iteration sweep.
func BenchmarkDeriveSnapshot(b *testing.B) {
	spec, err := experiments.SpecFor("npb.bt")
	if err != nil {
		b.Fatal(err)
	}
	base, err := core.Capture(spec.Fast(), spec.Options)
	if err != nil {
		b.Fatal(err)
	}
	opts := spec.Options
	opts.Iterations = 30 // 10x the fast instance's 3

	deriveNs := minSampleNs(b, 5, func(uint64) {
		if _, err := core.DeriveSnapshot(base, spec.Fast(), opts); err != nil {
			b.Fatal(err)
		}
	})
	captureNs := minSampleNs(b, 3, func(uint64) {
		if _, err := core.Capture(spec.Fast(), opts); err != nil {
			b.Fatal(err)
		}
	})
	once("derive-snap", fmt.Sprintf("\n== DeriveSnapshot: 10x-iteration BT derive %.3fms vs capture %.3fms: %.0fx ==\n",
		deriveNs/1e6, captureNs/1e6, captureNs/deriveNs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DeriveSnapshot(base, spec.Fast(), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(captureNs/deriveNs, "capture/derive-speedup")
}

// BenchmarkSeedSweep measures the seed axis of derivation end to end: a
// cold 8-seed BT campaign on a fresh engine resolves one real kernel
// and synthesizes the other seven seeds' snapshots, versus the pre-seed-
// derivation shape of the same sweep — eight single-seed engines that
// each execute their own kernel. Counter-gated: the engine sweep must
// run exactly one kernel (seven seed derivations), and must beat the
// per-seed-kernel baseline by the CI floor below.
func BenchmarkSeedSweep(b *testing.B) {
	spec, err := experiments.SpecFor("npb.bt")
	if err != nil {
		b.Fatal(err)
	}
	const seeds = 8
	matrix := campaign.Matrix{
		Workloads: []campaign.Workload{{Name: spec.Name, Factory: spec.Fast, Options: spec.Options}},
		Platforms: []campaign.Platform{{Name: "xeonmax", Platform: platform()}},
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		seed := seed
		matrix.Variants = append(matrix.Variants, campaign.Variant{
			Name:  fmt.Sprintf("seed%d", seed),
			Apply: func(o *core.Options) { o.Seed = seed },
		})
	}
	lctx, led := ledgerContext()
	sweep := func() {
		res, err := (&campaign.Engine{}).RunContext(lctx, matrix)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Err(); err != nil {
			b.Fatal(err)
		}
		if res.Executions != 1 || res.Derived != seeds-1 || res.SeedDerived != seeds-1 {
			b.Errorf("sweep ran %d kernels / %d derived / %d across seeds, want 1/%d/%d",
				res.Executions, res.Derived, res.SeedDerived, seeds-1, seeds-1)
		}
	}

	const reps = 3
	sweepNs := minSampleNs(b, reps, func(uint64) { sweep() })
	if got := led.Work().Kernels; got != reps {
		b.Errorf("%d cold sweeps executed %d kernels, want exactly one each", reps, got)
	}
	perSeedNs := minSampleNs(b, reps, func(uint64) {
		// The baseline sweeps seed-by-seed on fresh single-cell engines:
		// identical analysis work, but no family sibling to derive from,
		// so every seed pays its own kernel.
		for seed := uint64(1); seed <= seeds; seed++ {
			single := matrix
			single.Variants = []campaign.Variant{matrix.Variants[seed-1]}
			res, err := (&campaign.Engine{}).Run(single)
			if err != nil {
				b.Fatal(err)
			}
			if err := res.Err(); err != nil {
				b.Fatal(err)
			}
			if res.Executions != 1 {
				b.Errorf("per-seed baseline ran %d kernels for seed %d, want 1", res.Executions, seed)
			}
		}
	})
	speedup := perSeedNs / sweepNs
	const gate = 4.0
	if speedup < gate {
		b.Errorf("8-seed sweep is %.1fx the per-seed baseline, gate is %.0fx", speedup, gate)
	}
	once("seed-sweep", fmt.Sprintf("\n== SeedSweep: 8-seed cold BT campaign %.1fms (1 kernel, 7 seed derivations) vs per-seed kernels %.1fms: %.1fx ==\n",
		sweepNs/1e6, perSeedNs/1e6, speedup))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.ReportMetric(speedup, "per-seed/sweep-speedup")
}

// BenchmarkFamilyBase measures the derivation-base lookup behind a cache
// miss on a new seed — SnapshotCache.FamilyBase over an on-disk family
// directory of BT seed siblings — at two family sizes. The lookup stops
// at the first member whose snapshot loads, so it reads one member
// snapshot at either size and only the directory listing grows with the
// family; the run fails if a lookup reads more than one snapshot.
func BenchmarkFamilyBase(b *testing.B) {
	spec, err := experiments.SpecFor("npb.bt")
	if err != nil {
		b.Fatal(err)
	}
	withSeed := func(seed uint64) core.Options {
		o := spec.Options
		o.Seed = seed
		return o
	}
	base, err := core.Capture(spec.Fast(), withSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{8, 128} {
		b.Run(fmt.Sprintf("members=%d", size), func(b *testing.B) {
			fs := &faultfs.ReadCounter{FS: faultfs.OS, Ext: ".snap"}
			cache, err := trace.NewSnapshotCacheFS(b.TempDir(), fs)
			if err != nil {
				b.Fatal(err)
			}
			for seed := uint64(1); seed <= uint64(size); seed++ {
				snap, err := core.DeriveSnapshot(base, spec.Fast(), withSeed(seed))
				if err != nil {
					b.Fatal(err)
				}
				if err := cache.Store(core.SnapshotKeyFor(spec.Name, withSeed(seed)), snap); err != nil {
					b.Fatal(err)
				}
			}
			miss := core.SnapshotKeyFor(spec.Name, withSeed(1<<32))
			before := fs.Reads()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := cache.FamilyBase(miss); !ok {
					b.Fatal("no derivation base in a populated family")
				}
			}
			b.StopTimer()
			reads := float64(fs.Reads()-before) / float64(b.N)
			if reads > 1 {
				b.Errorf("lookup read %.1f member snapshots, want at most 1", reads)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "µs/op")
			b.ReportMetric(reads, "member-reads/op")
		})
	}
}

// ---------------------------------------------------------------------
// Serving-layer benchmark: the hmptd warm path end to end.
// ---------------------------------------------------------------------

// BenchmarkDaemonWarmServe boots an in-process hmptd, fills its caches
// with one pass over the Table I mix, then measures a warm closed-loop
// burst through the HTTP stack. The burst is counter-gated like the
// daemon-smoke CI job: a warm daemon must serve it with zero kernels,
// zero sampling passes, zero placement passes and zero derived
// snapshots. ns/op times a single warm /v1/analyze round trip; the
// loadgen percentiles and throughput land as custom metrics.
func BenchmarkDaemonWarmServe(b *testing.B) {
	s, err := server.New(server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mix := server.DefaultLoadWorkloads()
	warmup, err := server.RunLoad(server.LoadConfig{
		BaseURL: ts.URL, Clients: 2, Requests: len(mix), Workloads: mix,
	})
	if err != nil {
		b.Fatal(err)
	}
	if warmup.Errors != 0 {
		b.Fatalf("warm-up burst saw %d errors (first: %s)", warmup.Errors, warmup.FirstError)
	}

	base := s.Work()
	rep, err := server.RunLoad(server.LoadConfig{
		BaseURL: ts.URL, Clients: 4, Requests: 64, Workloads: mix,
	})
	if err != nil {
		b.Fatal(err)
	}
	if rep.Errors != 0 {
		b.Fatalf("warm burst saw %d errors (first: %s)", rep.Errors, rep.FirstError)
	}
	work := s.Work()
	if got := work.Kernels - base.Kernels; got != 0 {
		b.Errorf("warm burst executed %d kernels, want 0", got)
	}
	if got := work.SamplePasses - base.SamplePasses; got != 0 {
		b.Errorf("warm burst ran %d sampling passes, want 0", got)
	}
	if got := work.SweepEvaluations - base.SweepEvaluations; got != 0 {
		b.Errorf("warm burst ran %d placement passes, want 0", got)
	}
	if got := work.Derived - base.Derived; got != 0 {
		b.Errorf("warm burst derived %d snapshots, want 0", got)
	}
	once("daemon-warm", fmt.Sprintf("\n== DaemonWarmServe: %.0f req/sec over %d clients, p50 %.3fms p95 %.3fms p99 %.3fms, 0 kernels / 0 sampling / 0 placement / 0 derived ==\n",
		rep.Throughput, rep.Clients, rep.P50Ms, rep.P95Ms, rep.P99Ms))

	body := []byte(`{"workload":"npb.mg"}`)
	client := &http.Client{}
	// Time the single warm round trip only — the cold fill and the
	// gated burst above must not leak into ns/op at -benchtime=1x.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	// ResetTimer clears previously-reported custom metrics: report the
	// headline numbers after the timed loop so they reach the JSON
	// trajectory (bench/BENCH_pr7.json).
	b.ReportMetric(rep.Throughput, "req/sec")
	b.ReportMetric(rep.P50Ms, "p50-ms")
	b.ReportMetric(rep.P95Ms, "p95-ms")
	b.ReportMetric(rep.P99Ms, "p99-ms")
}

// BenchmarkWarmAnalyzeAllocs gates the allocations of one warm POST
// /v1/analyze through the daemon's handler, driven in-process by an
// httptest request and recorder: counts, never timings. npb.mg is keyed
// by its options alone; kwave's GroupBy policy is keyed over its
// capture's sites, so its warm request also resolves the snapshot. On
// Go 1.24 the requests make 74 and 89 allocations; when the identity
// hash converted every hashed string to a fresh []byte they made 86 and
// 151. The limits sit between the two, leaving room for net/http and
// httptest to allocate differently on other toolchains.
func BenchmarkWarmAnalyzeAllocs(b *testing.B) {
	for _, c := range []struct {
		workload string
		limit    float64
	}{{"npb.mg", 84}, {"kwave", 125}} {
		b.Run(c.workload, func(b *testing.B) {
			s, err := server.New(server.Config{})
			if err != nil {
				b.Fatal(err)
			}
			h := s.Handler()
			body := `{"workload":"` + c.workload + `"}`
			serve := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
			serve() // cold: fills the flight group
			allocs := testing.AllocsPerRun(50, serve)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
			b.ReportMetric(allocs, "allocs/req")
			if allocs > c.limit {
				b.Errorf("a warm %s request makes %.0f allocations, want <= %.0f", c.workload, allocs, c.limit)
			}
		})
	}
}

// BenchmarkShardedCampaign prices the crash-safe shard coordinator:
// plan a cold campaign into a shard directory, race three in-process
// workers over the lease/journal protocol, and merge. The cells/sec
// metric is directly comparable to BenchmarkColdTable2Workers — the
// gap between the two is the cost of durable leases, sealed journal
// records and the merge fold.
func BenchmarkShardedCampaign(b *testing.B) {
	spec := experiments.CampaignSpec{Workloads: []string{"all"}, Platforms: []string{"xeonmax"}}
	m, err := spec.Matrix()
	if err != nil {
		b.Fatal(err)
	}
	cells := len(m.Workloads) * len(m.Platforms)
	const workers = 3
	run := func() {
		dir := b.TempDir()
		if _, err := shard.Plan(dir, spec); err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for i := 0; i < workers; i++ {
			w, err := shard.NewWorker(dir, shard.WorkerOptions{
				ID:   fmt.Sprintf("bench%d", i),
				TTL:  5 * time.Second,
				Poll: 2 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = w.Run(context.Background())
			}(i)
		}
		wg.Wait()
		for i := range errs {
			if errs[i] != nil {
				b.Fatal(errs[i])
			}
		}
		merged, err := shard.Merge(dir, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !merged.Complete {
			b.Fatal("sharded campaign did not complete")
		}
		if err := merged.Result.Err(); err != nil {
			b.Fatal(err)
		}
	}
	coldNs := minSampleNs(b, 3, func(uint64) { run() })
	once("sharded-campaign",
		fmt.Sprintf("\n== ShardedCampaign: %d cells across %d workers in %.1fms (%.1f cells/sec) ==\n",
			cells, workers, coldNs/1e6, float64(cells)/(coldNs/1e9)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(cells)/(coldNs/1e9), "cells/sec")
}

// BenchmarkAnalysisCodec measures the analysis codec on the npb.bt
// analysis: MB/s through the encoder and decoder, and their allocation
// counts. The counts are gated, not the timings: an encode must be one
// allocation (its exact length is computed up front), and a decode at
// most one allocation per string outside the configs (id, workload,
// platform, every group label) plus a fixed 9 (the Analysis, its Groups
// and Configs, one backing array each for every group's Allocs and
// every config's Groups and Times, the one buffer every config label is
// a substring of, and two spare).
func BenchmarkAnalysisCodec(b *testing.B) {
	spec, err := experiments.SpecFor("npb.bt")
	if err != nil {
		b.Fatal(err)
	}
	an, err := core.New(spec.Fast(), spec.Options).Analyze()
	if err != nil {
		b.Fatal(err)
	}
	const id = "bench"
	raw, err := core.EncodeAnalysisRaw(id, an)
	if err != nil {
		b.Fatal(err)
	}
	strs := 3 + len(an.Groups) // id, workload, platform and every group label

	b.Run("encode", func(b *testing.B) {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := core.EncodeAnalysisRaw(id, an); err != nil {
				b.Fatal(err)
			}
		})
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.EncodeAnalysisRaw(id, an); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(allocs, "encode-allocs/op")
		if allocs > 1 {
			b.Errorf("encoding a %d-byte analysis makes %.0f allocations, want 1", len(raw), allocs)
		}
	})
	b.Run("decode", func(b *testing.B) {
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := core.DecodeAnalysis(raw); err != nil {
				b.Fatal(err)
			}
		})
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.DecodeAnalysis(raw); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(allocs, "decode-allocs/op")
		if limit := float64(strs + 9); allocs > limit {
			b.Errorf("decoding a %d-byte analysis with %d strings and %d configs makes %.0f allocations, want <= %.0f",
				len(raw), strs, len(an.Configs), allocs, limit)
		}
	})
}
