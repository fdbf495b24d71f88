// Campaign: sweep a scenario matrix — workloads × platform presets ×
// option variants — with each benchmark kernel executed at most once,
// and each placement space probed and swept at most once.
//
// The campaign engine stacks three content-addressed caching layers:
// snapshots capture the reference run (zero kernel executions on
// replay), embedded sample counts carry the IBS pass (zero sampling
// passes), and the analysis cache carries the probe/sweep placement
// costing itself (zero placement passes). A warm re-run of the same
// scenarios therefore does no pipeline work at all — the three
// counters printed at the end are the proof.
//
//	go run ./examples/campaign
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"hmpt"
)

func main() {
	// Three benchmarks, identified for the snapshot cache by name.
	var ws []hmpt.CampaignWorkload
	for _, name := range []string{"synth", "stream", "chase"} {
		name := name
		ws = append(ws, hmpt.CampaignWorkload{
			Name: name,
			Factory: func() hmpt.Workload {
				w, err := hmpt.NewWorkload(name)
				if err != nil {
					log.Fatal(err)
				}
				return w
			},
			Options: hmpt.Options{Seed: 7},
		})
	}

	// Two platform presets and two measurement budgets: a 3×2×2 matrix,
	// twelve analyses — but only three kernel executions.
	m := hmpt.CampaignMatrix{
		Workloads: ws,
		Platforms: []hmpt.CampaignPlatform{
			{Name: "xeonmax", Platform: hmpt.XeonMax9468()},
			{Name: "dual", Platform: hmpt.DualXeonMax9468()},
		},
		Variants: []hmpt.CampaignVariant{
			{Name: "n3"},
			{Name: "n9", Apply: func(o *hmpt.Options) { o.Runs = 9 }},
		},
	}

	// A fresh per-run cache directory: snapshot content addresses
	// include the build's VCS stamp, which `go run` binaries lack, so a
	// cache that outlives this process could serve captures of kernels
	// you have since edited. Long-lived caches belong to stamped
	// `go build` binaries (see `hmpt campaign -cache`).
	cacheDir, err := os.MkdirTemp("", "hmpt-campaign-cache-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(cacheDir)
	cache, err := hmpt.NewSnapshotCache(cacheDir)
	if err != nil {
		log.Fatal(err)
	}
	analyses, err := hmpt.NewAnalysisCache(filepath.Join(cacheDir, "analyses"))
	if err != nil {
		log.Fatal(err)
	}
	res, err := (&hmpt.CampaignEngine{Cache: cache, Analyses: analyses}).Run(m)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Err(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-8s %-8s %-4s  %-12s %s\n", "workload", "platform", "runs", "max-speedup", "best config")
	for _, cell := range res.Cells {
		max, cfg := cell.Analysis.MaxSpeedup()
		fmt.Printf("%-8s %-8s %-4s  %-12.2f %s\n",
			cell.Workload, cell.Platform, cell.Variant, max, cfg.Label)
	}
	fmt.Printf("\n%d analyses from %d reference runs: %d kernels executed, %d loaded from cache\n",
		len(res.Cells), res.Snapshots, res.Executions, res.CacheHits)

	// A second campaign over the same scenarios is fully warm: every
	// cell is served straight from the analysis cache, so the pipeline
	// performs zero kernel executions, zero IBS sampling passes and
	// zero probe/sweep placement passes — the run's work ledger proves it.
	res2, err := (&hmpt.CampaignEngine{Cache: cache, Analyses: analyses}).Run(m)
	if err != nil {
		log.Fatal(err)
	}
	if err := res2.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-run: %d analyses, %d served whole from the analysis cache\n",
		len(res2.Cells), res2.AnalysisHits)
	fmt.Printf("zero-work proof: %d kernel executions, %d sampling passes, %d placement passes\n",
		res2.Work.Kernels, res2.Work.SamplePasses, res2.Work.SweepEvaluations)
}
