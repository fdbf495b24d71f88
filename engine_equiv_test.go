// Seed-equivalence and determinism regression tests for the sweep
// engine: Analyze (compiled, incremental, parallel) must reproduce
// AnalyzeReference (naive per-mask costing) byte for byte, for every
// registered workload, and must be run-to-run identical at any sweep
// parallelism. These tests are the enforcement of the bit-exactness
// contract documented on memsim.SweepEvaluator.
package hmpt

import (
	"reflect"
	"sort"
	"testing"

	"hmpt/internal/core"
	"hmpt/internal/experiments"
	"hmpt/internal/workloads"
)

// equivCase binds one registered workload to a factory and options that
// analyze quickly at a fixed seed.
type equivCase struct {
	name    string
	factory workloads.Factory
	opts    core.Options
}

// equivCases covers every registered workload: the Table I/II
// benchmarks through their experiments specs (reduced-size instances,
// paper seeds), and the microbenchmark workloads through the registry.
func equivCases(t *testing.T) []equivCase {
	var cases []equivCase
	for _, spec := range experiments.Specs() {
		cases = append(cases, equivCase{name: spec.Name, factory: spec.Fast, opts: spec.Options})
	}
	for _, name := range []string{"chase", "randsum", "stream", "synth"} {
		name := name
		factory := func() workloads.Workload {
			w, err := workloads.New(name)
			if err != nil {
				t.Fatalf("registry workload %q: %v", name, err)
			}
			return w
		}
		cases = append(cases, equivCase{name: name, factory: factory, opts: core.Options{Seed: 1}})
	}

	// Keep the oracle honest: a workload registered without an
	// equivalence case here would silently escape the regression net.
	covered := make(map[string]bool, len(cases))
	for _, c := range cases {
		covered[c.name] = true
	}
	var missing []string
	for _, name := range workloads.Names() {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Fatalf("registered workloads without an equivalence case: %v", missing)
	}
	return cases
}

// TestEngineMatchesReference asserts the engine analysis equals the
// naive reference analysis exactly — every group (order, labels, solo
// speedups), every configuration (times, speedups, estimates), and all
// metadata — for every registered workload at its fixed seed.
func TestEngineMatchesReference(t *testing.T) {
	for _, c := range equivCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ref, err := core.New(c.factory(), c.opts).AnalyzeReference()
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			eng, err := core.New(c.factory(), c.opts).Analyze()
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			diffAnalyses(t, ref, eng)
		})
	}
}

// diffAnalyses reports precise differences between two analyses; the
// final DeepEqual backstops any field the targeted checks miss.
func diffAnalyses(t *testing.T, ref, eng *core.Analysis) {
	t.Helper()
	if ref.BaselineTime != eng.BaselineTime {
		t.Errorf("baseline: ref %.17g eng %.17g", float64(ref.BaselineTime), float64(eng.BaselineTime))
	}
	if len(ref.Groups) != len(eng.Groups) {
		t.Fatalf("group count: ref %d eng %d", len(ref.Groups), len(eng.Groups))
	}
	for i := range ref.Groups {
		r, e := &ref.Groups[i], &eng.Groups[i]
		if r.Label != e.Label || r.SoloSpeedup != e.SoloSpeedup || !reflect.DeepEqual(r.Allocs, e.Allocs) {
			t.Errorf("group %d: ref {%s solo=%.17g %v} eng {%s solo=%.17g %v}",
				i, r.Label, r.SoloSpeedup, r.Allocs, e.Label, e.SoloSpeedup, e.Allocs)
		}
	}
	if len(ref.Configs) != len(eng.Configs) {
		t.Fatalf("config count: ref %d eng %d", len(ref.Configs), len(eng.Configs))
	}
	for i := range ref.Configs {
		r, e := &ref.Configs[i], &eng.Configs[i]
		if r.Label != e.Label {
			t.Errorf("config %d label: ref %s eng %s", i, r.Label, e.Label)
		}
		if !reflect.DeepEqual(r.Times, e.Times) {
			t.Errorf("config %s times: ref %v eng %v", r.Label, r.Times, e.Times)
		}
		if r.Speedup != e.Speedup || r.EstSpeedup != e.EstSpeedup || r.SpeedupCI != e.SpeedupCI {
			t.Errorf("config %s: ref (%.17g %.17g %.17g) eng (%.17g %.17g %.17g)",
				r.Label, r.Speedup, r.EstSpeedup, r.SpeedupCI, e.Speedup, e.EstSpeedup, e.SpeedupCI)
		}
	}
	if !reflect.DeepEqual(ref, eng) {
		t.Errorf("analyses differ outside the fields compared above")
	}
}

// TestParallelSweepDeterministic asserts the engine analysis is
// byte-identical across repeated runs and across sweep worker counts:
// parallelism must change scheduling only, never results. npb.mg has 3
// groups (8 configs); npb.bt has 8 (256 configs whose Groups and Times
// are carved from shared backing arrays that every worker writes into).
func TestParallelSweepDeterministic(t *testing.T) {
	for name, configs := range map[string]int{"npb.mg": 8, "npb.bt": 256} {
		spec, err := experiments.SpecFor(name)
		if err != nil {
			t.Fatal(err)
		}
		var base *core.Analysis
		for _, workers := range []int{1, 1, 3, 16} {
			opts := spec.Options
			opts.SweepParallelism = workers
			an, err := core.New(spec.Fast(), opts).Analyze()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if base == nil {
				base = an
				continue
			}
			if !reflect.DeepEqual(base, an) {
				t.Errorf("%s: analysis differs at SweepParallelism=%d", name, workers)
			}
		}
		if len(base.Configs) != configs {
			t.Errorf("%s: %d configs, want %d", name, len(base.Configs), configs)
		}
	}
}
