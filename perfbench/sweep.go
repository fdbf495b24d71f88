package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hmpt/internal/campaign"
	"hmpt/internal/experiments"
	"hmpt/internal/shard"
)

// Shard workers hold leases for far longer than an operation lasts, so
// no lease expires and nothing is reclaimed in a healthy run; a reclaim
// is counted as a failed operation. They poll often, because an idle
// worker waits for its peer's last cell before it returns.
const (
	leaseTTL   = 10 * time.Minute
	workerPoll = 2 * time.Millisecond
	workers    = 2
)

// runSweep is the sharded-sweep workload: set-up captures one base per
// family into a template tree; each operation copies the template into
// a fresh tree, plans the 8-seed sweep (112 cells), runs two shard
// workers — each with its own engine, sharing only the disk — and
// merges the journal, then reads back 14 of the cells as warm one-cell
// queries.
func runSweep(ctx context.Context, rc *runCfg) (*outcome, error) {
	spec := tableISpec(sweepSeeds(rc.seed))
	m, err := spec.Matrix()
	if err != nil {
		return nil, err
	}
	cells := cellsOf(m)
	out := newOutcome()

	var template *memFS
	setupS, err := timedSetups(rc, func(int) error {
		template, err = captureBases(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = setupS

	t := newTracer()
	st := newOpStats()
	got := make(tally) // per read-back rotation: merged cells, then warm queries
	var publishes, retries float64
	rt0 := readRT()
	for i := 0; st.more(rc); i++ {
		out.attempted++
		dir := filepath.Join(rc.scratch, fmt.Sprintf("op-%d", i))
		op, err := shardedSweep(ctx, template, dir, spec, tracerFor(rc, t, i), i)
		os.RemoveAll(dir)
		st.addOp(rc, i, op.dur)
		var ds []digest
		if err == nil {
			if i%2 == 1 {
				st.addCounts(op.merged.Result)
			}
			ds, err = resultDigests(op.merged.Result)
		}
		subset := readBackCells(i, len(cells))
		if err == nil {
			snaps, ans, cerr := caches(op.fsys, "/")
			if cerr != nil {
				return nil, cerr
			}
			pick := make([]cellRef, len(subset))
			for k, c := range subset {
				pick[k] = cells[c]
			}
			var warm []digest
			warm, err = warmQueries(ctx, st, snaps, ans, pick)
			ds = append(ds, warm...)
			publishes, retries = publishes+op.publishes, retries+op.retries
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: sharded-sweep op %d: %v\n", i, err)
			out.failed++
		} else {
			st.cells += len(cells)
			got.add(subset[0], i, ds)
		}
	}
	rt1 := readRT()
	if !rc.traced {
		out.values["heap_mb"] = liveHeapMB() - st.heldMB()
	}

	// Oracle: the same sweep in one engine, in this process, on a fresh
	// copy of the template. An oracle that cannot be computed fails
	// every operation.
	_, ref, err := singleEngine(ctx, template, m)
	var want []digest
	if err == nil {
		want, err = resultDigests(ref)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: sharded-sweep oracle: %v\n", err)
	}
	out.failed += got.check(rc.workload, func(op int) []digest {
		if want == nil {
			return nil
		}
		w := append([]digest(nil), want...)
		for _, c := range readBackCells(op, len(cells)) {
			w = append(w, want[c])
		}
		return w
	})
	st.report(rc, out)
	if rc.traced {
		ops := float64(len(st.opDur))
		out.values["fsatomic.publishes"] = publishes / ops
		out.values["fsatomic.retries"] = retries / ops
		runtimeMetrics(out, rt0, rt1, len(st.opDur))
		if err := layerWalk(ctx, rc, t, walkIn{spec: spec, cells: cells, template: template}, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readBackCells picks the 14 cells operation i reads back: the 112
// cells in rotation, so every cell is read back over eight operations.
func readBackCells(i, n int) []int {
	const k = 14
	out := make([]int, k)
	for j := range out {
		out[j] = (i*k + j) % n
	}
	return out
}

// sweepRun is one sharded campaign's outcome.
type sweepRun struct {
	fsys      *memFS // the operation's cache and shard trees
	dur       time.Duration
	merged    *shard.Merged
	summaries []*shard.Summary
	publishes float64
	retries   float64
}

// shardedSweep copies the template into a fresh tree, plans spec in a
// fresh shard directory, runs the workers concurrently and merges. The
// manifest lives on disk under dir, where shard.Plan writes it; the
// leases, journal and caches live in the tree.
func shardedSweep(ctx context.Context, template *memFS, dir string, spec experiments.CampaignSpec, t *tracer, op int) (*sweepRun, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	start := time.Now()
	run := &sweepRun{}
	root := t.begin("op.sweep", op, -1)
	defer func() {
		t.end(root)
		run.dur = time.Since(start)
	}()
	id := t.begin("bench.copy", op, root)
	run.fsys = template.clone()
	t.end(id)
	shardDir := filepath.Join(dir, "shard")
	id = t.begin("shard.plan", op, root)
	_, err := shard.Plan(shardDir, spec)
	if err == nil {
		err = mirrorDirs(shardDir, run.fsys)
	}
	t.end(id)
	if err != nil {
		return run, err
	}
	run.summaries = make([]*shard.Summary, workers)
	errs := make([]error, workers)
	pubs := make([][2]float64, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			snaps, ans, err := caches(run.fsys, "/")
			if err != nil {
				errs[k] = err
				return
			}
			w, err := shard.NewWorker(shardDir, shard.WorkerOptions{
				ID: fmt.Sprintf("w%d", k), TTL: leaseTTL, Poll: workerPoll, FS: run.fsys,
				Engine: &campaign.Engine{Cache: snaps, Analyses: ans, Parallelism: 1},
			})
			if err != nil {
				errs[k] = err
				return
			}
			id := t.begin("shard.worker", op, root)
			run.summaries[k], errs[k] = w.Run(ctx)
			t.end(id)
			pubs[k][0], pubs[k][1] = publishStats(snaps, ans)
		}(k)
	}
	wg.Wait()
	for k := 0; k < workers; k++ {
		if errs[k] != nil {
			return run, fmt.Errorf("worker %d: %w", k, errs[k])
		}
		run.publishes += pubs[k][0]
		run.retries += pubs[k][1]
		if n := run.summaries[k].Reclaimed; n > 0 {
			return run, fmt.Errorf("worker %d reclaimed %d leases", k, n)
		}
	}
	id = t.begin("shard.merge", op, root)
	run.merged, err = shard.Merge(shardDir, run.fsys)
	t.end(id)
	if err != nil {
		return run, err
	}
	if !run.merged.Complete {
		return run, fmt.Errorf("merge: %d cells pending", run.merged.Pending)
	}
	return run, nil
}

// singleEngine runs the matrix in one engine over a fresh copy of the
// template, timing the run alone.
func singleEngine(ctx context.Context, template *memFS, m campaign.Matrix) (time.Duration, *campaign.Result, error) {
	snaps, ans, err := caches(template.clone(), "/")
	if err != nil {
		return 0, nil, err
	}
	eng := &campaign.Engine{Cache: snaps, Analyses: ans}
	start := time.Now()
	res, err := eng.RunContext(ctx, m)
	return time.Since(start), res, err
}

// mirrorDirs recreates in fsys the directories shard.Plan made on disk
// under dir, so the workers' leases and journal, which go through fsys,
// find the tree Plan laid out.
func mirrorDirs(dir string, fsys *memFS) error {
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		return fsys.MkdirAll(path, 0o755)
	})
}
