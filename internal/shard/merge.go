package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/faultfs"
	"hmpt/internal/parallel"
)

// QuarantinedCell is one entry of a merge's structured partial-failure
// report.
type QuarantinedCell struct {
	Cell     int
	Workload string
	Platform string
	Variant  string
	Attempts int
	Errors   []string
}

// Merged is the folded outcome of a sharded campaign.
type Merged struct {
	// Result holds the cells in matrix enumeration order — the same
	// order, coordinates and analyses a single-process run of the
	// manifest's spec produces. Quarantined cells carry an Err
	// summarising their failure history; incomplete cells (only when
	// Complete is false) carry an Err saying so.
	Result *campaign.Result
	// Complete reports every cell settled: journaled or quarantined.
	Complete bool
	// Pending counts unsettled cells (0 when Complete).
	Pending int
	// Quarantined is the structured partial-failure report.
	Quarantined []QuarantinedCell
	// StaleLeases and StaleStaging count the coordination-tree files the
	// merge swept: leftover lease records and fsatomic staging
	// residue from killed workers.
	StaleLeases  int
	StaleStaging int
	// Reports are the per-worker shard reports found in the directory.
	Reports []Summary
}

// Merge folds a sharded campaign's journal back into one
// campaign.Result and sweeps stale coordination files. It is kernel-free:
// every analysis comes out of the journal records, so merging a
// completed campaign never recomputes a cell. Merging an in-progress
// campaign is safe (it reports Complete=false and sweeps nothing that
// is still live — only settled campaigns shed their leases).
//
// Merge is the one place a journaled analysis is decoded. It decodes the
// records on GOMAXPROCS goroutines and folds them in matrix order. A
// record whose envelope validates but whose analysis body does not
// decode is removed and its cell reported pending, so a fresh worker
// re-runs it.
func Merge(dir string, fs faultfs.FS) (*Merged, error) {
	return MergeContext(context.Background(), dir, fs)
}

// MergeContext is Merge under ctx: it stops early with ctx's error, and
// counts its journal events — one AnalysisDecode per record it decodes,
// and each JournalInvalid — on the ledger ctx carries (core.WithLedger).
func MergeContext(ctx context.Context, dir string, fs faultfs.FS) (*Merged, error) {
	if fs == nil {
		fs = faultfs.OS
	}
	man, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	m, err := man.Matrix()
	if err != nil {
		return nil, err
	}
	cells := enumerate(m)
	j := &journal{fs: fs, dir: filepath.Join(dir, journalDir), manifest: man.ID, ledger: core.LedgerFrom(ctx)}
	at := &attempts{
		fs: fs, failDir: filepath.Join(dir, failDir), quarDir: filepath.Join(dir, quarantineDir),
		manifest: man.ID,
	}
	recs := make([]*cellRecord, len(cells))
	err = parallel.ForCtx(ctx, parallel.DefaultThreads(), len(cells), func(ctx context.Context, _, lo, hi int) {
		for i := lo; i < hi && ctx.Err() == nil; i++ {
			recs[i], _ = j.load(i)
		}
	})
	if err != nil {
		return nil, err
	}

	out := &Merged{Result: &campaign.Result{}, Complete: true}
	for _, ref := range cells {
		if rec := recs[ref.Index]; rec != nil {
			cell := rec.campaignCell()
			// Provenance counters at cell granularity: a journaled
			// campaign records where each cell's inputs came from, and
			// the merge folds them the way Result's invariant reads —
			// hits + derivations + executions account for every resolved
			// snapshot.
			switch {
			case cell.AnalysisFromCache:
				out.Result.AnalysisHits++
			case cell.Coalesced:
				out.Result.Snapshots++
				out.Result.Coalesced++
			case cell.Derived:
				out.Result.Snapshots++
				out.Result.Derived++
				if cell.SeedDerived {
					out.Result.SeedDerived++
				}
			case cell.FromCache:
				out.Result.Snapshots++
				out.Result.CacheHits++
			default:
				out.Result.Snapshots++
				out.Result.Executions++
			}
			out.Result.Cells = append(out.Result.Cells, cell)
			continue
		}
		if rec, ok := at.quarantined(ref.Index); ok {
			q := QuarantinedCell{
				Cell: ref.Index, Workload: rec.Workload, Platform: rec.Platform, Variant: rec.Variant,
				Attempts: rec.Attempts, Errors: rec.Errors,
			}
			out.Quarantined = append(out.Quarantined, q)
			last := "unknown error"
			if len(q.Errors) > 0 {
				last = q.Errors[len(q.Errors)-1]
			}
			out.Result.Cells = append(out.Result.Cells, campaign.Cell{
				Workload: ref.Workload.Name, Platform: ref.Platform.Name, Variant: ref.Variant.Name,
				Err: fmt.Errorf("shard: quarantined after %d attempts: %s", q.Attempts, last),
			})
			continue
		}
		out.Complete = false
		out.Pending++
		out.Result.Cells = append(out.Result.Cells, campaign.Cell{
			Workload: ref.Workload.Name, Platform: ref.Platform.Name, Variant: ref.Variant.Name,
			Err: fmt.Errorf("shard: cell not yet complete"),
		})
	}

	if out.Complete {
		out.StaleLeases = sweepLeases(fs, dir)
		out.StaleStaging += sweepStaging(fs, filepath.Join(dir, journalDir))
		out.StaleStaging += sweepStaging(fs, filepath.Join(dir, reportDir))
		out.StaleStaging += sweepStaging(fs, dir)
	}

	if entries, err := fs.ReadDir(filepath.Join(dir, reportDir)); err == nil {
		for _, ent := range entries {
			if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".json") {
				continue
			}
			raw, err := fs.ReadFile(filepath.Join(dir, reportDir, ent.Name()))
			if err != nil {
				continue
			}
			var s Summary
			if json.Unmarshal(raw, &s) == nil {
				out.Reports = append(out.Reports, s)
			}
		}
	}
	return out, nil
}
