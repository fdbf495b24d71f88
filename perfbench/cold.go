package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/experiments"
	"hmpt/internal/trace"
)

// coldSeeds is how many cell seeds a cold-campaign run rotates
// through. Kernel time depends on the seed's data by several per cent,
// so a run that used one seed would report that seed, not the workload.
const coldSeeds = 12

// runCold is the cold-campaign workload: each operation is one fully
// cold campaign over Table I × {xeonmax, dual} at one seed, on a fresh
// engine and fresh, empty snapshot and analysis cache trees — 7 kernels
// and 14 analyses — followed by one warm one-cell query per cell.
// Operations rotate through coldSeeds seeds, two operations per seed so
// a traced run's traced and untraced operations see the same seeds.
func runCold(ctx context.Context, rc *runCfg) (*outcome, error) {
	specs := make([]experiments.CampaignSpec, coldSeeds)
	ms := make([]campaign.Matrix, coldSeeds)
	cells := make([][]cellRef, coldSeeds)
	for k := range specs {
		specs[k] = tableISpec([]uint64{kernelSeed(rc.seed, k)})
		var err error
		if ms[k], err = specs[k].Matrix(); err != nil {
			return nil, err
		}
		cells[k] = cellsOf(ms[k])
	}
	seedOf := func(i int) int { return (i / 2) % coldSeeds }
	out := newOutcome()

	// Set-up is one warm-up campaign: it pages in the kernels and grows
	// the heap the way the first measured campaign would otherwise.
	setupS, err := timedSetups(rc, func(r int) error {
		_, err := coldCampaign(ctx, ms[r%coldSeeds], nil, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = setupS

	t := newTracer()
	st := newOpStats()
	got := make(tally) // per seed: campaign cells, then warm queries
	var publishes, retries float64
	rt0 := readRT()
	for i := 0; st.more(rc); i++ {
		out.attempted++
		k := seedOf(i)
		op, err := coldCampaign(ctx, ms[k], tracerFor(rc, t, i), i)
		st.addOp(rc, i, op.dur)
		if err == nil && i%2 == 1 {
			st.addCounts(op.res)
		}
		var ds []digest
		if err == nil {
			ds, err = resultDigests(op.res)
		}
		if err == nil {
			var warm []digest
			warm, err = warmQueries(ctx, st, op.snaps, op.ans, cells[k])
			ds = append(ds, warm...)
			p, r := publishStats(op.snaps, op.ans)
			publishes, retries = publishes+p, retries+r
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cold-campaign op %d: %v\n", i, err)
			out.failed++
		} else {
			st.cells += len(cells[k])
			got.add(k, i, ds)
		}
	}
	rt1 := readRT()
	if !rc.traced {
		out.values["heap_mb"] = liveHeapMB() - st.heldMB()
	}

	// Oracle: the same cells through the decomposed pipeline, one
	// public call at a time. An oracle that cannot be computed fails the
	// operations it was to check.
	want := make([][]digest, coldSeeds)
	for k := range want {
		ds, err := decomposedCold(ctx, cells[k])
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cold-campaign oracle: %v\n", err)
			continue
		}
		want[k] = append(ds, ds...) // the warm queries read back the same cells
	}
	out.failed += got.check(rc.workload, func(op int) []digest { return want[seedOf(op)] })
	st.report(rc, out)
	if rc.traced {
		ops := float64(len(st.opDur))
		out.values["fsatomic.publishes"] = publishes / ops
		out.values["fsatomic.retries"] = retries / ops
		out.values["campaign.run_ms"] = medianMs(t.durations("campaign.run"))
		runtimeMetrics(out, rt0, rt1, len(st.opDur))
		if err := layerWalk(ctx, rc, t, walkIn{spec: specs[0], cells: cells[0]}, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// campaignRun is one campaign on a fresh engine over fresh, empty cache
// trees, with its caches kept for the read-back.
type campaignRun struct {
	dur   time.Duration
	res   *campaign.Result
	snaps *trace.SnapshotCache
	ans   *core.AnalysisCache
}

func coldCampaign(ctx context.Context, m campaign.Matrix, t *tracer, op int) (*campaignRun, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	start := time.Now()
	root := t.begin("op.campaign", op, -1)
	defer t.end(root)
	snaps, ans, err := caches(newMemFS(), "/")
	if err != nil {
		return &campaignRun{dur: time.Since(start)}, err
	}
	eng := &campaign.Engine{Cache: snaps, Analyses: ans}
	id := t.begin("campaign.run", op, root)
	res, err := eng.RunContext(ctx, m)
	t.end(id)
	return &campaignRun{dur: time.Since(start), res: res, snaps: snaps, ans: ans}, err
}

// decomposedCold computes the cells' analyses through the pipeline's
// public stages — CaptureContext, NewContext, then
// NewContextReplay(...).AnalyzeContext — one capture per snapshot key,
// as the engine shares it, and returns their digests in cell order.
func decomposedCold(ctx context.Context, cells []cellRef) ([]digest, error) {
	ctxs := make(map[string]*core.ReplayContext)
	out := make([]digest, len(cells))
	for i, c := range cells {
		opts := c.options()
		id := core.SnapshotKeyFor(c.w.Name, opts).ID()
		rctx, ok := ctxs[id]
		if !ok {
			snap, err := core.CaptureContext(ctx, c.w.Factory(), opts)
			if err != nil {
				return nil, err
			}
			if rctx, err = core.NewContext(snap); err != nil {
				return nil, err
			}
			ctxs[id] = rctx
		}
		an, err := core.NewContextReplay(rctx, opts).AnalyzeContext(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		if out[i], err = digestOf(an); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func medianMs(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}
