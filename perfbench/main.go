// Command perfbench is the repository benchmark: it drives the campaign
// engine, the shard workers and the hmptd server from outside, through
// their public APIs, and prints one JSON result line.
//
//	perfbench --workload cold-campaign --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//	cold-campaign  fully cold Table I campaigns on fresh cache trees
//	sharded-sweep  an 8-seed Table I sweep planned, run by two shard
//	               workers and merged, from a tree holding one base
//	               capture per family
//	serve-mix      two closed-loop HTTP clients against an in-process
//	               server: warm keys, 1 in 50 unseen seeds, scrapes
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it alternates traced and untraced operations, then walks the
// workload's cells one public call at a time, and reports the per-layer
// metrics. Every run checks its outputs against an oracle computed in
// the same process, after the measured phase.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef is one reported metric; the lists below are the ones
// BENCHMARK.json declares (a test keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

var endToEnd = []metricDef{
	{"cells_per_s", "1/s", "higher"},
	{"req_per_s", "1/s", "higher"},
	{"campaign_ms_p50", "ms", "lower"},
	{"campaign_ms_p90", "ms", "lower"},
	{"warm_ms_p50", "ms", "lower"},
	{"warm_ms_p95", "ms", "lower"},
	{"heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = []metricDef{
	{"workloads.kernel_ms", "ms", "lower"},
	{"trace.canonical_ms", "ms", "lower"},
	{"ibs.count_ms", "ms", "lower"},
	{"core.capture_ms", "ms", "lower"},
	{"split.kernel_share", "fraction", "lower"},
	{"core.derive_us", "us", "lower"},
	{"trace.family_scan_us", "us", "lower"},
	{"trace.family_records", "count", "lower"},
	{"core.context_us", "us", "lower"},
	{"core.analyze_ms", "ms", "lower"},
	{"memsim.compile_us", "us", "lower"},
	{"memsim.mask_ns", "ns", "lower"},
	{"memsim.masks", "count", "lower"},
	{"trace.snap_bytes", "bytes", "lower"},
	{"trace.snap_encode_us", "us", "lower"},
	{"trace.snap_decode_us", "us", "lower"},
	{"trace.snap_store_us", "us", "lower"},
	{"trace.snap_load_us", "us", "lower"},
	{"core.an_bytes", "bytes", "lower"},
	{"core.an_encode_us", "us", "lower"},
	{"core.an_decode_us", "us", "lower"},
	{"core.an_store_us", "us", "lower"},
	{"core.an_load_us", "us", "lower"},
	{"fsatomic.publishes", "count/op", "lower"},
	{"fsatomic.retries", "count/op", "lower"},
	{"campaign.run_ms", "ms", "lower"},
	{"campaign.kernels", "count/op", "lower"},
	{"campaign.derived", "count/op", "higher"},
	{"campaign.cache_hits", "count/op", "higher"},
	{"campaign.analysis_hits", "count/op", "higher"},
	{"campaign.coalesced", "count/op", "higher"},
	{"shard.plan_ms", "ms", "lower"},
	{"shard.worker_ms", "ms", "lower"},
	{"shard.merge_ms", "ms", "lower"},
	{"shard.overhead_frac", "fraction", "lower"},
	{"shard.claim_skew", "fraction", "lower"},
	{"shard.leases", "count/op", "lower"},
	{"shard.renewals", "count/op", "lower"},
	{"shard.reclaims", "count/op", "lower"},
	{"shard.journal_records", "count/op", "lower"},
	{"server.handler_us", "us", "lower"},
	{"server.transport_us", "us", "lower"},
	{"split.handler_share", "fraction", "lower"},
	{"server.resp_bytes", "bytes", "lower"},
	{"server.scrape_ms", "ms", "lower"},
	{"server.scrape_bytes", "bytes", "lower"},
	{"server.flights_retained", "count", "lower"},
	{"runtime.alloc_mb_per_op", "MB/op", "lower"},
	{"runtime.gc_cycles", "count/op", "lower"},
	{"runtime.gc_pause_ms", "ms/op", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
}

// runCfg is one invocation's parameters and shared state.
type runCfg struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	scratch  string         // per-run scratch tree inside the checkout
	info     map[string]any // printed on the line before the result
}

// outcome is what a workload returns: operation counts, whether every
// oracle agreed, and metric values by name.
type outcome struct {
	attempted int
	failed    int
	values    map[string]float64
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

var workloadRuns = map[string]func(context.Context, *runCfg) (*outcome, error){
	"cold-campaign": runCold,
	"sharded-sweep": runSweep,
	"serve-mix":     runServe,
}

func main() {
	workload := flag.String("workload", "", "workload name: cold-campaign, sharded-sweep or serve-mix")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "length of the measured phase in seconds")
	traceMode := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloadRuns[*workload]
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload cold-campaign|sharded-sweep|serve-mix, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if err := mainErr(run, *workload, *seed, time.Duration(*seconds)*time.Second, *traceMode == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(run func(context.Context, *runCfg) (*outcome, error), workload string, seed uint64, seconds time.Duration, traced bool) error {
	scratch := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	rc := &runCfg{
		workload: workload, seed: seed, seconds: seconds, traced: traced, scratch: scratch,
		info: map[string]any{"workload": workload, "seed": seed, "gomaxprocs": runtime.GOMAXPROCS(0),
			"cache_fs": "in-memory", "scratch_fs": fsType(scratch)},
	}
	out, err := run(context.Background(), rc)
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	var missing []string
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = value{v, d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("%s measured no value for %v", workload, missing)
	}
	if res.Attempted < 1 {
		return fmt.Errorf("%s attempted no operations", workload)
	}
	info, err := json.Marshal(rc.info)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("info %s\n%s\n", info, line)
	return nil
}

// fsType names the filesystem holding dir, for the record. Cache trees
// and shard leases and journals live in memory (see memFS); only the
// shard manifests shard.Plan writes, and the span dumps, reach it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// rtSnap is a point-in-time reading of the allocator and collector.
type rtSnap struct {
	alloc, gcs, pauseNs uint64
}

func readRT() rtSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return rtSnap{alloc: m.TotalAlloc, gcs: uint64(m.NumGC), pauseNs: m.PauseTotalNs}
}

// runtimeMetrics records the per-op allocator and collector deltas
// between two readings.
func runtimeMetrics(out *outcome, a, b rtSnap, ops int) {
	if ops < 1 {
		ops = 1
	}
	out.values["runtime.alloc_mb_per_op"] = float64(b.alloc-a.alloc) / (1 << 20) / float64(ops)
	out.values["runtime.gc_cycles"] = float64(b.gcs-a.gcs) / float64(ops)
	out.values["runtime.gc_pause_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6 / float64(ops)
}
