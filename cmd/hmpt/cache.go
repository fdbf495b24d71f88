package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hmpt/internal/cachegc"
	"hmpt/internal/report"
	"hmpt/internal/units"
)

// cacheCmd dispatches the cache lifecycle subcommands.
func cacheCmd(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: hmpt cache <stats|gc> [flags]")
	}
	switch args[0] {
	case "stats":
		return cacheStatsCmd(args[1:])
	case "gc":
		return cacheGCCmd(args[1:])
	default:
		return fmt.Errorf("unknown cache subcommand %q (want stats or gc)", args[0])
	}
}

// cacheDirFlags declares the shared cache-location flags and resolves
// the analysis-dir default the same way `hmpt campaign` does, so stats
// and gc see exactly the tree a campaign populates.
func cacheDirFlags(fs *flag.FlagSet) (cacheDir, analysisDir *string, resolve func() cachegc.Options) {
	cacheDir = fs.String("cache", "", "snapshot cache directory")
	analysisDir = fs.String("analysis-cache", "", "analysis cache directory (empty = <cache>/analyses when -cache is set)")
	return cacheDir, analysisDir, func() cachegc.Options {
		opts := cachegc.Options{CacheDir: *cacheDir, AnalysisDir: *analysisDir}
		if opts.AnalysisDir == "" && opts.CacheDir != "" {
			opts.AnalysisDir = filepath.Join(opts.CacheDir, "analyses")
		}
		return opts
	}
}

// cacheStatsCmd reports per-rung cache usage: entry and byte counts,
// plus the dead subset no current build can read.
func cacheStatsCmd(args []string) error {
	fs := flag.NewFlagSet("cache stats", flag.ContinueOnError)
	_, _, resolve := cacheDirFlags(fs)
	asJSON := fs.Bool("json", false, "emit JSON instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := resolve()
	if opts.CacheDir == "" && opts.AnalysisDir == "" {
		return fmt.Errorf("cache stats: need -cache and/or -analysis-cache")
	}
	usage, err := cachegc.Scan(opts)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(usage)
	}
	t := report.NewTable("rung", "entries", "bytes", "dead", "dead-bytes")
	row := func(name string, u cachegc.RungUsage) {
		t.AddRow(name, fmt.Sprint(u.Entries), units.Bytes(u.Bytes).String(),
			fmt.Sprint(u.Dead), units.Bytes(u.DeadBytes).String())
	}
	row("snapshots", usage.Snapshots)
	row("analyses", usage.Analyses)
	row("staging", usage.Staging)
	if err := t.Write(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\ntotal %s\n", units.Bytes(usage.TotalBytes))
	return nil
}

// cacheGCCmd runs one collection pass: dead entries and orphaned
// staging files unconditionally, then LRU-by-atime eviction down to the
// size bound.
func cacheGCCmd(args []string) error {
	fs := flag.NewFlagSet("cache gc", flag.ContinueOnError)
	_, _, resolve := cacheDirFlags(fs)
	maxBytes := fs.Int64("max-bytes", 0, "live snapshot+analysis byte bound, LRU-evicted down to (0 = no size bound)")
	stagingAge := fs.Duration("staging-age", time.Hour, "minimum age before a staging file counts as orphaned")
	dryRun := fs.Bool("dry-run", false, "report what would be collected without removing anything")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := resolve()
	if opts.CacheDir == "" && opts.AnalysisDir == "" {
		return fmt.Errorf("cache gc: need -cache and/or -analysis-cache")
	}
	opts.MaxBytes = *maxBytes
	opts.StagingAge = *stagingAge
	opts.DryRun = *dryRun
	rep, err := cachegc.Run(opts)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	mode := "removed"
	if *dryRun {
		mode = "would remove"
	}
	fmt.Printf("cache gc: %s %d dead entries (%s) and %d staging files; evicted %d entries (%s); live %s\n",
		mode, rep.DeadEntries, units.Bytes(rep.DeadBytes), rep.StagingRemoved,
		rep.EvictedEntries, units.Bytes(rep.EvictedBytes), units.Bytes(rep.LiveBytes))
	return nil
}
