package ibs

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"hmpt/internal/memsim"
	"hmpt/internal/shim"
	"hmpt/internal/trace"
	"hmpt/internal/units"
	"hmpt/internal/xrand"
)

func sampleSetup(t *testing.T) (*shim.Allocator, *memsim.Machine, *memsim.SimplePlacement) {
	t.Helper()
	al := shim.NewAllocator()
	m := memsim.NewMachine(memsim.XeonMax9468())
	pl := memsim.NewSimplePlacement(len(m.P.Pools), m.P.MustPool(memsim.DDR))
	return al, m, pl
}

func TestDensityProportionalToTraffic(t *testing.T) {
	al, m, pl := sampleSetup(t)
	hot := al.Register("hot", units.GB(1), 1)
	cold := al.Register("cold", units.GB(1), 1)
	tr := &trace.Trace{Phases: []trace.Phase{{
		Name: "p",
		Streams: []trace.Stream{
			{Alloc: hot.ID, Bytes: units.GB(9), Kind: trace.Read, Pattern: trace.Sequential},
			{Alloc: cold.ID, Bytes: units.GB(1), Kind: trace.Read, Pattern: trace.Sequential},
		},
	}}}
	rep, err := NewSampler().Sample(tr, al, m, pl, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total == 0 {
		t.Fatal("no samples")
	}
	dh := rep.ByAlloc[hot.ID].Density
	dc := rep.ByAlloc[cold.ID].Density
	if math.Abs(dh-0.9) > 0.03 || math.Abs(dc-0.1) > 0.03 {
		t.Errorf("densities (%.3f, %.3f), want (0.9, 0.1)", dh, dc)
	}
	if got := rep.Density(hot.ID, cold.ID); math.Abs(got-1) > 1e-9 {
		t.Errorf("combined density %.3f", got)
	}
}

func TestRankedOrder(t *testing.T) {
	al, m, pl := sampleSetup(t)
	a := al.Register("a", units.GB(1), 1)
	b := al.Register("b", units.GB(1), 1)
	tr := &trace.Trace{Phases: []trace.Phase{{
		Name: "p",
		Streams: []trace.Stream{
			{Alloc: a.ID, Bytes: units.GB(2), Kind: trace.Read, Pattern: trace.Sequential},
			{Alloc: b.ID, Bytes: units.GB(8), Kind: trace.Read, Pattern: trace.Sequential},
		},
	}}}
	rep, err := NewSampler().Sample(tr, al, m, pl, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	ranked := rep.Ranked()
	if len(ranked) != 2 || ranked[0] != b.ID {
		t.Errorf("ranked = %v, want b first", ranked)
	}
}

func TestSampleBudgetRaisesPeriod(t *testing.T) {
	al, m, pl := sampleSetup(t)
	a := al.Register("a", units.GB(64), 1)
	tr := &trace.Trace{Phases: []trace.Phase{{
		Name:    "p",
		Streams: []trace.Stream{{Alloc: a.ID, Bytes: units.GB(64), Kind: trace.Read, Pattern: trace.Sequential}},
		Repeat:  100,
	}}}
	s := NewSampler()
	rep, err := s.Sample(tr, al, m, pl, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total > s.MaxSamples+1 {
		t.Errorf("samples %d exceed budget %d", rep.Total, s.MaxSamples)
	}
	if rep.Period <= s.Period {
		t.Errorf("period %d should have been raised above %d", rep.Period, s.Period)
	}
}

func TestLatencyReflectsPool(t *testing.T) {
	al, m, _ := sampleSetup(t)
	a := al.Register("a", units.GB(8), 1)
	tr := &trace.Trace{Phases: []trace.Phase{{
		Name: "p",
		Streams: []trace.Stream{{
			Alloc: a.ID, Bytes: units.GB(8), Kind: trace.Read,
			Pattern: trace.Random, WorkingSet: units.GB(8),
		}},
	}}}
	ddr := memsim.NewSimplePlacement(len(m.P.Pools), m.P.MustPool(memsim.DDR))
	hbm := memsim.NewSimplePlacement(len(m.P.Pools), m.P.MustPool(memsim.DDR))
	hbm.Set(a.ID, m.P.MustPool(memsim.HBM))
	repD, err := NewSampler().Sample(tr, al, m, ddr, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	repH, err := NewSampler().Sample(tr, al, m, hbm, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	ld := repD.ByAlloc[a.ID].AvgLatency
	lh := repH.ByAlloc[a.ID].AvgLatency
	if ratio := float64(lh) / float64(ld); ratio < 1.1 || ratio > 1.3 {
		t.Errorf("HBM/DDR sampled latency ratio %.3f, want ~1.2", ratio)
	}
}

func TestSampleErrors(t *testing.T) {
	al, m, pl := sampleSetup(t)
	if _, err := NewSampler().Sample(nil, al, m, pl, xrand.New(1)); err == nil {
		t.Error("nil trace should fail")
	}
	if _, err := NewSampler().Sample(&trace.Trace{}, al, m, pl, nil); err == nil {
		t.Error("nil rng should fail")
	}
	if _, err := NewSampler().SampleReference(nil, al, m, pl, xrand.New(1)); err == nil {
		t.Error("reference: nil trace should fail")
	}
	if _, err := NewSampler().Counts(nil, al); err == nil {
		t.Error("counts: nil trace should fail")
	}
}

// TestChoosePoolDegenerateSplits pins the roulette's behaviour for the
// degenerate fraction vectors the float-accumulation fix concerns:
// all-zero falls back to the last pool, a single-pool split always
// returns that pool, and a split summing below 1 distributes the tail
// proportionally instead of funnelling it into the last pool.
func TestChoosePoolDegenerateSplits(t *testing.T) {
	rng := xrand.New(11)
	for i := 0; i < 1000; i++ {
		if got := choosePool([]float64{0, 0, 0}, rng); got != 2 {
			t.Fatalf("all-zero split chose pool %d, want last (2)", got)
		}
		if got := choosePool([]float64{1}, rng); got != 0 {
			t.Fatalf("single-pool split chose pool %d, want 0", got)
		}
		if got := choosePool([]float64{0, 1, 0}, rng); got != 1 {
			t.Fatalf("degenerate one-hot split chose pool %d, want 1", got)
		}
	}
	// Sum < 1: [0.25, 0.25] must split 50/50, not 25/75.
	var first int
	const draws = 40_000
	for i := 0; i < draws; i++ {
		if choosePool([]float64{0.25, 0.25}, rng) == 0 {
			first++
		}
	}
	if frac := float64(first) / draws; math.Abs(frac-0.5) > 0.02 {
		t.Errorf("under-normalised split sent %.3f to pool 0, want 0.5 (tail must not sink into the last pool)", frac)
	}
}

// TestMultinomialMatchesSplit: the batched pool attribution conserves
// the sample count and reproduces the (normalised) split proportions,
// including under-normalised and degenerate vectors.
func TestMultinomialMatchesSplit(t *testing.T) {
	rng := xrand.New(12)
	cases := []struct {
		split []float64
		want  []float64 // normalised expectation
	}{
		{[]float64{1, 0}, []float64{1, 0}},
		{[]float64{0, 0}, []float64{0, 1}}, // all-zero: last pool, like choosePool
		{[]float64{0.7, 0.3}, []float64{0.7, 0.3}},
		{[]float64{0.25, 0.25}, []float64{0.5, 0.5}},
		{[]float64{0.2, 0.3, 0.5}, []float64{0.2, 0.3, 0.5}},
		{[]float64{0.1, 0, 0.1, 0.05}, []float64{0.4, 0, 0.4, 0.2}},
	}
	for _, c := range cases {
		const n = 200_000
		out := make([]int, len(c.split))
		multinomial(rng, n, c.split, out)
		total := 0
		for _, k := range out {
			total += k
		}
		if total != n {
			t.Errorf("split %v: multinomial distributed %d of %d samples", c.split, total, n)
		}
		for i, k := range out {
			if frac := float64(k) / n; math.Abs(frac-c.want[i]) > 0.02 {
				t.Errorf("split %v pool %d: got fraction %.3f, want %.3f", c.split, i, frac, c.want[i])
			}
		}
	}
}

// TestBinomialMoments: the binomial sampler hits the analytic mean and
// variance on both the exact-inversion and normal-approximation paths.
func TestBinomialMoments(t *testing.T) {
	rng := xrand.New(13)
	for _, c := range []struct {
		n int
		p float64
	}{{40, 0.2}, {40, 0.8}, {100_000, 0.0001}, {100_000, 0.4}, {7, 1}, {7, 0}} {
		const trials = 3000
		var sum, sum2 float64
		for i := 0; i < trials; i++ {
			k := float64(binomial(rng, c.n, c.p))
			if k < 0 || k > float64(c.n) {
				t.Fatalf("binomial(%d, %g) = %g out of range", c.n, c.p, k)
			}
			sum += k
			sum2 += k * k
		}
		mean := sum / trials
		wantMean := float64(c.n) * c.p
		wantSD := math.Sqrt(float64(c.n) * c.p * (1 - c.p))
		if tol := 4 * wantSD / math.Sqrt(trials); math.Abs(mean-wantMean) > tol+1e-9 {
			t.Errorf("binomial(%d, %g): mean %.2f, want %.2f ± %.2f", c.n, c.p, mean, wantMean, tol)
		}
		if wantSD > 0 {
			sd := math.Sqrt(sum2/trials - mean*mean)
			if sd < 0.8*wantSD || sd > 1.2*wantSD {
				t.Errorf("binomial(%d, %g): sd %.2f, want ~%.2f", c.n, c.p, sd, wantSD)
			}
		}
	}
}

// TestResolverMatchesAllocatorResolve cross-checks the sampler's
// binary-search resolver against the shim allocator's linear scan over
// randomized allocate/free sequences: live hits, dead-allocation holes,
// range boundaries, and addresses outside any range must all agree.
func TestResolverMatchesAllocatorResolve(t *testing.T) {
	rng := xrand.New(14)
	for trial := 0; trial < 25; trial++ {
		al := shim.NewAllocator()
		var all []*shim.Allocation
		var live []*shim.Allocation
		steps := 5 + rng.Intn(40)
		for i := 0; i < steps; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				j := rng.Intn(len(live))
				if err := al.Free(live[j].ID); err != nil {
					t.Fatal(err)
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			a := al.Register(fmt.Sprintf("a%d", i), units.Bytes(rng.Intn(1<<20)+1), float64(rng.Intn(7)+1))
			all = append(all, a)
			live = append(live, a)
		}
		res := newResolver(al)
		check := func(addr uint64) {
			t.Helper()
			var want shim.AllocID
			if a := al.Resolve(addr); a != nil {
				want = a.ID
			}
			if got := res.resolve(addr); got != want {
				t.Fatalf("trial %d: resolve(%#x) = %d, allocator says %d", trial, addr, got, want)
			}
		}
		var maxEnd uint64
		for _, a := range all {
			check(a.Addr)                       // first byte (live or dead hole)
			check(a.End() - 1)                  // last byte
			check(a.End())                      // first byte of the next range
			check(a.Addr + uint64(a.SimSize)/2) // interior
			if a.End() > maxEnd {
				maxEnd = a.End()
			}
		}
		check(0)              // the unmapped zero page
		check(4095)           // below the first allocation
		check(maxEnd)         // one past the break
		check(maxEnd + 12345) // far beyond
		for i := 0; i < 200; i++ {
			check(rng.Uint64() % (maxEnd + 8192))
		}
	}
}

// TestCountsMatchSample: the platform-independent count pass agrees
// with the full engine on every count-derived statistic, and
// ValidateCounts plus CountTable.Report reconstruct the engine's report
// bitwise under a whole-pool placement.
func TestCountsMatchSample(t *testing.T) {
	al, m, pl := sampleSetup(t)
	hot := al.Register("hot", units.GB(1), 1)
	cold := al.Register("cold", units.GB(1), 1)
	dead := al.Register("dead", units.GB(1), 1)
	if err := al.Free(dead.ID); err != nil {
		t.Fatal(err)
	}
	pl.Set(hot.ID, m.P.MustPool(memsim.HBM))
	tr := &trace.Trace{Phases: []trace.Phase{{
		Name: "p",
		Streams: []trace.Stream{
			{Alloc: hot.ID, Bytes: units.GB(6), Kind: trace.Update, Pattern: trace.Sequential},
			{Alloc: cold.ID, Bytes: units.GB(3), Kind: trace.Read, Pattern: trace.Random, WorkingSet: 80 * units.MiB},
			{Alloc: dead.ID, Bytes: units.GB(1), Kind: trace.Write, Pattern: trace.Sequential},
		},
		Repeat: 3,
	}}}
	s := NewSampler()
	rep, err := s.Sample(tr, al, m, pl, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	counts, err := s.Counts(tr, al)
	if err != nil {
		t.Fatal(err)
	}
	if int64(rep.Total) != counts.Total || int64(rep.Unmapped) != counts.Unmapped || rep.Period != counts.Period {
		t.Errorf("counts (%d, %d, %d) disagree with engine (%d, %d, %d)",
			counts.Total, counts.Unmapped, counts.Period, rep.Total, rep.Unmapped, rep.Period)
	}
	if counts.Unmapped == 0 {
		t.Error("dead allocation produced no unmapped samples")
	}
	for _, e := range counts.ByAlloc {
		st := rep.ByAlloc[e.ID]
		if st == nil || int64(st.Samples) != e.Samples {
			t.Errorf("alloc %d: counts say %d samples, engine %+v", e.ID, e.Samples, st)
		}
	}
	table, err := ValidateCounts(counts, tr, al)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := table.Report(m, pl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rec) {
		t.Errorf("count replay differs from engine report:\nengine %+v\nreplay %+v", rep, rec)
	}

	// Stale counts — captured from a different trace — must be rejected.
	other := &trace.Trace{Phases: []trace.Phase{{
		Name:    "q",
		Streams: []trace.Stream{{Alloc: hot.ID, Bytes: units.GB(1), Kind: trace.Read, Pattern: trace.Sequential}},
	}}}
	staleCounts, err := s.Counts(other, al)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateCounts(staleCounts, tr, al); err == nil {
		t.Error("stale sample counts replayed without error")
	}
	bad := *counts
	bad.SamplerVersion = SamplerVersion + 1
	if _, err := ValidateCounts(&bad, tr, al); err == nil {
		t.Error("cross-version sample counts replayed without error")
	}
}
