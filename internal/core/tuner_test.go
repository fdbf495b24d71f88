package core

import (
	"context"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"hmpt/internal/memsim"
	"hmpt/internal/units"
	"hmpt/internal/workloads"
	"hmpt/internal/workloads/synth"
)

func analyzeDefault(t *testing.T) *Analysis {
	t.Helper()
	tuner := New(synth.Default(), Options{Seed: 42})
	an, err := tuner.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestAnalyzeSynthBasics(t *testing.T) {
	an := analyzeDefault(t)
	t.Log(an.String())

	if got, want := len(an.Groups), 4; got != want {
		t.Fatalf("groups = %d, want %d (4 arrays, all significant)", got, want)
	}
	if got, want := len(an.Configs), 16; got != want {
		t.Fatalf("configs = %d, want %d", got, want)
	}
	if an.Configs[0].Speedup < 0.95 || an.Configs[0].Speedup > 1.05 {
		t.Errorf("DDR-only speedup %.3f should be ~1", an.Configs[0].Speedup)
	}
	// Group 0 must be the hot array: ranked by individual impact.
	if an.Groups[0].Label != "synth.hot" {
		t.Errorf("top-ranked group is %q, want synth.hot", an.Groups[0].Label)
	}
	// Solo speedups must be non-increasing across ranked groups
	// (excluding the rest group, which there is none of here).
	for i := 1; i < len(an.Groups); i++ {
		if an.Groups[i].SoloSpeedup > an.Groups[i-1].SoloSpeedup+1e-9 {
			t.Errorf("group %d solo speedup %.3f exceeds group %d's %.3f",
				i, an.Groups[i].SoloSpeedup, i-1, an.Groups[i-1].SoloSpeedup)
		}
	}
	// Densities sum to ~1 over all groups.
	var dens float64
	for _, g := range an.Groups {
		dens += g.Density
	}
	if math.Abs(dens-1) > 0.02 {
		t.Errorf("group densities sum to %.3f, want ~1", dens)
	}
	// Footprint fractions sum to 1.
	var frac float64
	for _, g := range an.Groups {
		frac += g.Frac
	}
	if math.Abs(frac-1) > 1e-9 {
		t.Errorf("group fractions sum to %.6f, want 1", frac)
	}
}

func TestAnalyzeMonotonicity(t *testing.T) {
	an := analyzeDefault(t)
	// Moving more data into HBM is not strictly monotone: leaving
	// low-traffic allocations in DDR keeps both pools streaming
	// concurrently (the paper's §V observation that the maximum is
	// reached below 100 % HBM usage). Adding a group may therefore hurt
	// a little — but never catastrophically.
	for mask := uint32(0); mask < uint32(len(an.Configs)); mask++ {
		for g := 0; g < len(an.Groups); g++ {
			bit := uint32(1) << uint(g)
			if mask&bit != 0 {
				continue
			}
			if an.Configs[mask|bit].Speedup < an.Configs[mask].Speedup*0.80 {
				t.Errorf("config %s (%.3f) far slower than subset %s (%.3f)",
					an.Configs[mask|bit].Label, an.Configs[mask|bit].Speedup,
					an.Configs[mask].Label, an.Configs[mask].Speedup)
			}
		}
	}
	// Table II always shows max >= HBM-only, with HBM-only close behind.
	max, maxCfg := an.MaxSpeedup()
	if an.HBMOnly().Speedup > max+1e-9 {
		t.Errorf("HBM-only %.3f exceeds reported max %.3f", an.HBMOnly().Speedup, max)
	}
	if an.HBMOnly().Speedup < 0.80*max {
		t.Errorf("HBM-only %.3f far below max %.3f", an.HBMOnly().Speedup, max)
	}
	// The maximum of the skewed profile is reached strictly below 100 %
	// HBM usage (the headline behaviour of the paper).
	if maxCfg.HBMFrac >= 0.999 {
		t.Errorf("max speedup at %.1f%% HBM; expected below 100%%", maxCfg.HBMFrac*100)
	}
}

func TestNinetyPercentUsage(t *testing.T) {
	an := analyzeDefault(t)
	frac, cfg := an.NinetyPercentUsage()
	if cfg == nil {
		t.Fatal("no 90% configuration found")
	}
	max, _ := an.MaxSpeedup()
	if cfg.Speedup < 0.9*max {
		t.Errorf("90%% config %s speedup %.3f below threshold %.3f", cfg.Label, cfg.Speedup, 0.9*max)
	}
	// The synthetic profile is heavily skewed: 90% of the gain must be
	// reachable with well under all data in HBM.
	if frac > 0.80 {
		t.Errorf("90%% usage %.2f should be < 0.80 for the skewed profile", frac)
	}
	t.Logf("90%% speedup at %.1f%% HBM via %s", frac*100, cfg.Label)
}

func TestLinearEstimateMatchesSingles(t *testing.T) {
	an := analyzeDefault(t)
	// For single-group configs the estimate equals the measured solo
	// speedup by construction (modulo measurement noise across probe
	// vs config runs).
	for _, g := range an.Groups {
		cfg := &an.Configs[1<<uint(g.Index)]
		if math.Abs(cfg.EstSpeedup-g.SoloSpeedup) > 1e-9 {
			t.Errorf("group %d estimate %.4f != solo %.4f", g.Index, cfg.EstSpeedup, g.SoloSpeedup)
		}
		if rel := math.Abs(cfg.Speedup-g.SoloSpeedup) / g.SoloSpeedup; rel > 0.05 {
			t.Errorf("group %d measured %.4f vs solo probe %.4f (rel %.3f)", g.Index, cfg.Speedup, g.SoloSpeedup, rel)
		}
	}
}

func TestPlannerBudget(t *testing.T) {
	an := analyzeDefault(t)
	// Exact planner: unconstrained budget returns the global max.
	best, err := an.BestUnderBudget(an.TotalBytes)
	if err != nil {
		t.Fatal(err)
	}
	max, maxCfg := an.MaxSpeedup()
	if best.Speedup != max {
		t.Errorf("unconstrained best %.3f != max %.3f", best.Speedup, max)
	}
	_ = maxCfg

	// A budget fitting only one 8 GB array must select the hot group.
	one, err := an.BestUnderBudget(units.GB(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Groups) != 1 || one.Groups[0] != 0 {
		t.Errorf("9 GB budget selected %s, want [0]", one.Label)
	}

	// Greedy matches exact on this profile for a 2-array budget.
	greedy, err := an.GreedyPlan(units.GB(17))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := an.BestUnderBudget(units.GB(17))
	if err != nil {
		t.Fatal(err)
	}
	// Greedy ignores pool-overlap effects, so allow a modest gap.
	if greedy.Speedup < 0.90*exact.Speedup {
		t.Errorf("greedy %.3f much worse than exact %.3f", greedy.Speedup, exact.Speedup)
	}

	// Impossible budget errors.
	if _, err := an.BestUnderBudget(units.Bytes(1)); err != nil {
		t.Errorf("tiny budget should still fit the empty config, got error: %v", err)
	}
}

func TestParetoFront(t *testing.T) {
	an := analyzeDefault(t)
	front := an.ParetoFront()
	if len(front) < 2 {
		t.Fatalf("front too small: %d", len(front))
	}
	for i := 1; i < len(front); i++ {
		if front[i].HBMBytes < front[i-1].HBMBytes {
			t.Errorf("front not sorted by footprint at %d", i)
		}
		if front[i].Speedup <= front[i-1].Speedup {
			t.Errorf("front speedup not increasing at %d", i)
		}
	}
	if front[0].Mask != 0 {
		t.Errorf("front must start at the DDR-only config, got %s", front[0].Label)
	}
}

func TestDetailedViewOrdering(t *testing.T) {
	an := analyzeDefault(t)
	rows := an.Detailed(true)
	if len(rows) != len(an.Configs)-1 {
		t.Fatalf("detailed rows = %d, want %d", len(rows), len(an.Configs)-1)
	}
	sizes := func(label string) int {
		n := 0
		for _, c := range label {
			if c == ' ' {
				n++
			}
		}
		return n + 1
	}
	for i := 1; i < len(rows); i++ {
		if sizes(rows[i].Label) < sizes(rows[i-1].Label) {
			t.Errorf("detail rows not grouped by combination size at %d (%s after %s)",
				i, rows[i].Label, rows[i-1].Label)
		}
	}
}

func TestAnalyzeDeterminism(t *testing.T) {
	a1 := analyzeDefault(t)
	a2 := analyzeDefault(t)
	if a1.BaselineTime != a2.BaselineTime {
		t.Errorf("baseline differs across identical seeds: %v vs %v", a1.BaselineTime, a2.BaselineTime)
	}
	for i := range a1.Configs {
		if a1.Configs[i].Speedup != a2.Configs[i].Speedup {
			t.Errorf("config %d speedup differs: %v vs %v", i, a1.Configs[i].Speedup, a2.Configs[i].Speedup)
		}
	}
}

func TestGroupByMergesSites(t *testing.T) {
	w := synth.New(synth.Config{
		Arrays: []synth.ArraySpec{
			{Name: "vel.x", SimBytes: units.GB(2), ReadBytes: units.GB(10)},
			{Name: "vel.y", SimBytes: units.GB(2), ReadBytes: units.GB(10)},
			{Name: "vel.z", SimBytes: units.GB(2), ReadBytes: units.GB(10)},
			{Name: "p", SimBytes: units.GB(2), ReadBytes: units.GB(4)},
		},
		Iters: 4,
	})
	tuner := New(w, Options{
		Seed: 7,
		GroupBy: func(label string) string {
			if len(label) > len("synth.vel") && label[:len("synth.vel")] == "synth.vel" {
				return "vel"
			}
			return ""
		},
	})
	an, err := tuner.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Groups) != 2 {
		t.Fatalf("groups = %d, want 2 (vel + p)", len(an.Groups))
	}
	var vel *Group
	for i := range an.Groups {
		if an.Groups[i].Label == "vel" {
			vel = &an.Groups[i]
		}
	}
	if vel == nil {
		t.Fatal("no merged vel group")
	}
	if len(vel.Allocs) != 3 {
		t.Errorf("vel group has %d allocations, want 3", len(vel.Allocs))
	}
	if vel.SimBytes != units.GB(6) {
		t.Errorf("vel group footprint %v, want 6 GB", vel.SimBytes)
	}
}

func TestFilterFoldsSmallAllocs(t *testing.T) {
	w := synth.New(synth.Config{
		Arrays: []synth.ArraySpec{
			{Name: "big", SimBytes: units.GB(4), ReadBytes: units.GB(16)},
			{Name: "tiny1", SimBytes: 64 * units.KiB, ReadBytes: units.GB(1)},
			{Name: "tiny2", SimBytes: 128 * units.KiB, ReadBytes: units.GB(1)},
		},
		Iters: 3,
	})
	an, err := New(w, Options{Seed: 9}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// big + rest(tiny1, tiny2)
	if len(an.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(an.Groups))
	}
	if !an.Groups[1].Rest {
		t.Errorf("second group should be the rest group")
	}
	if got := len(an.Groups[1].Allocs); got != 2 {
		t.Errorf("rest group has %d allocations, want 2", got)
	}
	if an.FilteredAllocs != 1 {
		t.Errorf("FilteredAllocs = %d, want 1", an.FilteredAllocs)
	}
}

func TestMaxGroupsCap(t *testing.T) {
	var arrays []synth.ArraySpec
	for i := 0; i < 12; i++ {
		arrays = append(arrays, synth.ArraySpec{
			Name:      string(rune('a' + i)),
			SimBytes:  units.GB(1),
			ReadBytes: units.GB(float64(12 - i)),
		})
	}
	w := synth.New(synth.Config{Arrays: arrays, Iters: 2})
	an, err := New(w, Options{Seed: 11, MaxGroups: 4}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Groups) != 4 {
		t.Fatalf("groups = %d, want 4 (3 + rest)", len(an.Groups))
	}
	if !an.Groups[3].Rest {
		t.Errorf("last group must be rest")
	}
	if got := len(an.Groups[3].Allocs); got != 9 {
		t.Errorf("rest group has %d allocations, want 9", got)
	}
	if len(an.Configs) != 16 {
		t.Errorf("configs = %d, want 16", len(an.Configs))
	}
}

// TestCapacityInfeasible marks configurations exceeding HBM capacity.
func TestCapacityInfeasible(t *testing.T) {
	w := synth.New(synth.Config{
		Arrays: []synth.ArraySpec{
			{Name: "huge", SimBytes: units.GB(100), ReadBytes: units.GB(100)},
			{Name: "ok", SimBytes: units.GB(4), ReadBytes: units.GB(40)},
		},
		Iters: 2,
	})
	an, err := New(w, Options{Seed: 13}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// Platform HBM capacity is 64 GiB: any config containing "huge"
	// must be infeasible.
	for i := range an.Configs {
		c := &an.Configs[i]
		hasHuge := false
		for _, gi := range c.Groups {
			if an.Groups[gi].Label == "synth.huge" {
				hasHuge = true
			}
		}
		if hasHuge && c.Feasible {
			t.Errorf("config %s contains 100 GB group but is marked feasible", c.Label)
		}
		if !hasHuge && !c.Feasible {
			t.Errorf("config %s should be feasible", c.Label)
		}
	}
	// BestUnderBudget(0) must avoid infeasible configs.
	best, err := an.BestUnderBudget(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, gi := range best.Groups {
		if an.Groups[gi].Label == "synth.huge" {
			t.Errorf("feasible-best selected infeasible group")
		}
	}
}

// TestTunerTraceReuse ensures the machine cost of the captured trace is
// invariant across repeated costing (no hidden state in the engine).
func TestTunerTraceReuse(t *testing.T) {
	p := memsim.XeonMax9468()
	m := memsim.NewMachine(p)
	w := synth.Default()
	env := workloads.NewEnv(0, 1, 1)
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(env); err != nil {
		t.Fatal(err)
	}
	tr := env.Rec.Trace()
	pl := memsim.NewSimplePlacement(len(p.Pools), p.MustPool(memsim.DDR))
	r1, err := m.Cost(tr, pl, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Cost(tr, pl, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time {
		t.Errorf("deterministic cost changed across calls: %v vs %v", r1.Time, r2.Time)
	}
}

// TestSamplerControlsChangeSnapshotKey: the IBS period and budget are
// capture inputs — a non-default value must address a different
// snapshot-cache entry, and the default must be canonical (unset and
// explicitly-default options share one entry).
func TestSamplerControlsChangeSnapshotKey(t *testing.T) {
	base := SnapshotKeyFor("w", Options{Seed: 1})
	explicit := SnapshotKeyFor("w", Options{Seed: 1, SamplePeriod: 1 << 16, SampleBudget: 200_000})
	if base.ID() != explicit.ID() {
		t.Error("explicitly-default sampler controls address a different entry than unset ones")
	}
	period := SnapshotKeyFor("w", Options{Seed: 1, SamplePeriod: 1 << 14})
	if period.ID() == base.ID() {
		t.Error("non-default sample period did not change the snapshot cache key")
	}
	budget := SnapshotKeyFor("w", Options{Seed: 1, SampleBudget: 50_000})
	if budget.ID() == base.ID() {
		t.Error("non-default sample budget did not change the snapshot cache key")
	}
}

// TestSamplerControlsThreadThroughAnalysis: a coarser sampling period
// attributes fewer samples (the default-period run is budget-bound),
// and a replay of a non-default capture reproduces it without a
// sampling pass.
func TestSamplerControlsThreadThroughAnalysis(t *testing.T) {
	w := synth.Default()
	base, err := New(w, Options{Seed: 1}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 1, SamplePeriod: 1 << 22}
	coarse, err := New(synth.Default(), opts).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if coarse.SampleCount >= base.SampleCount {
		t.Errorf("64x period: %d samples vs %d at default, want fewer", coarse.SampleCount, base.SampleCount)
	}
	snap, err := Capture(synth.Default(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.SamplePeriod != 1<<22 {
		t.Errorf("capture recorded period %d, want %d", snap.Meta.SamplePeriod, 1<<22)
	}
	led := NewLedger(nil)
	replay, err := NewReplay(snap, opts).AnalyzeContext(WithLedger(context.Background(), led))
	if err != nil {
		t.Fatal(err)
	}
	if got := led.Work().SamplePasses; got != 0 {
		t.Errorf("replay ran %d sampling passes, want 0 (embedded counts)", got)
	}
	if !reflect.DeepEqual(coarse, replay) {
		t.Error("replay at non-default period differs from live analysis")
	}
	// Mismatched sampler controls must be rejected, like any other
	// capture-input mismatch.
	if _, err := New(synth.Default(), Options{Seed: 1, Snapshot: snap}).Analyze(); err == nil {
		t.Error("analysis accepted a snapshot captured under a different sampling period")
	}
}

// TestReplayWithoutEmbeddedCountsSamplesLive: a snapshot carrying no
// sample counts (hand-built, with sampler controls left unset in its
// metadata) replays by running a live sampling pass instead of being
// rejected, and still matches the live analysis byte for byte.
func TestReplayWithoutEmbeddedCountsSamplesLive(t *testing.T) {
	snap, err := Capture(synth.Default(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	live, err := New(synth.Default(), Options{Seed: 1}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	snap.Samples = nil
	snap.Meta.SamplePeriod = 0 // the natural hand-built state
	snap.Meta.SampleBudget = 0
	led := NewLedger(nil)
	replay, err := NewReplay(snap, Options{}).AnalyzeContext(WithLedger(context.Background(), led))
	if err != nil {
		t.Fatal(err)
	}
	if got := led.Work().SamplePasses; got != 1 {
		t.Errorf("count-free replay ran %d sampling passes, want 1 (live fallback)", got)
	}
	if !reflect.DeepEqual(live, replay) {
		t.Error("count-free replay differs from live analysis")
	}
}

// TestIterationsChangeSnapshotKey: the iteration-count override is a
// capture input — a non-default value must address a different
// snapshot-cache entry (it executes a different kernel), and zero (the
// workload default) must be canonical.
func TestIterationsChangeSnapshotKey(t *testing.T) {
	base := SnapshotKeyFor("w", Options{Seed: 1})
	again := SnapshotKeyFor("w", Options{Seed: 1, Iterations: 0})
	if base.ID() != again.ID() {
		t.Error("zero iterations (workload default) addresses a different entry than unset")
	}
	iters := SnapshotKeyFor("w", Options{Seed: 1, Iterations: 40})
	if iters.ID() == base.ID() {
		t.Error("iteration override did not change the snapshot cache key")
	}
}

// TestIterationsThreadThroughAnalysis: the override reaches the kernel
// (the trace's total traffic scales with it, while its phase count does
// not), is recorded in the capture metadata, fills in on replay, and a
// mismatched injection is rejected like any other capture input.
func TestIterationsThreadThroughAnalysis(t *testing.T) {
	base, err := Capture(synth.Default(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 1, Iterations: 30} // synth default is 10
	more, err := Capture(synth.Default(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if more.Meta.Iterations != 30 {
		t.Errorf("capture recorded iterations %d, want 30", more.Meta.Iterations)
	}
	if got, want := more.Trace.TotalBytes(), 3*base.Trace.TotalBytes(); got != want {
		t.Errorf("3x iterations moved %v, want exactly 3x the default's %v", got, base.Trace.TotalBytes())
	}
	if got, want := len(more.Trace.Phases), len(base.Trace.Phases); got != want {
		t.Errorf("3x iterations produced %d phases, want %d (dedup)", got, want)
	}
	live, err := New(synth.Default(), opts).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	replay, err := NewReplay(more, Options{}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replay) {
		t.Error("replay at non-default iterations differs from live analysis")
	}
	if _, err := New(synth.Default(), Options{Seed: 1, Snapshot: more}).Analyze(); err == nil {
		t.Error("analysis accepted a snapshot captured under a different iteration count")
	}
}

// TestConfigShellsMatchConfigShell: the one-pass shell builder writes
// exactly what the per-mask configShell does — for one- and two-digit
// group indices, an HBM capacity that makes some masks infeasible, and
// a zero total — with every config's Times sized for the runs, every
// label a consecutive substring of one string of labelsLen bytes.
func TestConfigShellsMatchConfigShell(t *testing.T) {
	for _, k := range []int{0, 1, 3, 8, 12} {
		groups := make([]Group, k)
		for gi := range groups {
			groups[gi] = Group{Index: gi, SimBytes: units.Bytes(gi+1) * units.MiB, Density: 1 / float64(gi+3)}
		}
		for _, total := range []units.Bytes{0, units.Bytes(k*k+1) * units.MiB} {
			const runs = 3
			hbmCap := units.Bytes(k) * units.MiB
			cfgs := make([]Config, 1<<uint(k))
			configShells(cfgs, groups, total, hbmCap, runs)
			labels := 0
			for mask := range cfgs {
				got, want := cfgs[mask], configShell(groups, uint32(mask), total, hbmCap)
				if len(got.Times) != runs || cap(got.Times) != runs {
					t.Fatalf("k=%d mask %d: Times len %d cap %d, want %d", k, mask, len(got.Times), cap(got.Times), runs)
				}
				got.Times = nil
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("k=%d total=%d mask %d: configShells %+v, configShell %+v", k, total, mask, got, want)
				}
				if mask > 0 {
					prev := cfgs[mask-1].Label
					if unsafe.StringData(got.Label) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(prev)), len(prev))) {
						t.Fatalf("k=%d: label of mask %d does not follow mask %d's in one string", k, mask, mask-1)
					}
				}
				labels += len(got.Label)
			}
			if labels != labelsLen(k) {
				t.Errorf("k=%d: labels take %d bytes, labelsLen says %d", k, labels, labelsLen(k))
			}
		}
	}
}
