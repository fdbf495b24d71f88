package memsim

import (
	"testing"

	"hmpt/internal/shim"
	"hmpt/internal/trace"
	"hmpt/internal/units"
	"hmpt/internal/xrand"
)

// sweepTrace builds a trace that exercises every corner the evaluator
// compiles: mixed kinds and patterns, working-set-limited streams,
// repeats, phase-pinned thread counts, flops, zero-byte streams, an
// allocation outside every group, and groups interleaved within phases.
func sweepTrace() *trace.Trace {
	return &trace.Trace{Phases: []trace.Phase{
		{
			Name: "interleaved", Flops: units.GFlops(40), VectorFrac: 0.7,
			Streams: []trace.Stream{
				{Alloc: 1, Bytes: units.GB(8), Kind: trace.Read, Pattern: trace.Sequential},
				{Alloc: 3, Bytes: units.GB(2), Kind: trace.Update, Pattern: trace.Stencil},
				{Alloc: 2, Bytes: units.GB(4), Kind: trace.Write, Pattern: trace.Sequential},
				{Alloc: 1, Bytes: units.GB(1), Kind: trace.Read, Pattern: trace.Random, WorkingSet: 64 * units.MiB},
				{Alloc: 9, Bytes: units.GB(3), Kind: trace.Read, Pattern: trace.Sequential}, // ungrouped
			},
			Repeat: 7,
		},
		{
			Name: "chase", Threads: 1,
			Streams: []trace.Stream{
				{Alloc: 2, Bytes: units.GB(1), Kind: trace.Read, Pattern: trace.Chase, WorkingSet: units.GB(1)},
				{Alloc: 4, Bytes: 0, Kind: trace.Read, Pattern: trace.Sequential}, // skipped
			},
		},
		{
			Name: "compute-only", Flops: units.GFlops(500), VectorFrac: 1, FlopEff: 0.8,
			Streams: []trace.Stream{
				{Alloc: 4, Bytes: units.GB(1), Kind: trace.Update, Pattern: trace.Sequential, MLP: 12},
			},
			Repeat: 3,
		},
	}}
}

// sweepGroups partitions allocations 1..4 into three groups; alloc 9
// stays outside the partition (pinned to the default pool).
func sweepGroups() [][]shim.AllocID {
	return [][]shim.AllocID{{1}, {2, 4}, {3}}
}

// placementForMask mirrors the tuner: masked groups in HBM, rest DDR.
func placementForMask(p *Platform, groups [][]shim.AllocID, mask uint32) *SimplePlacement {
	ddr := p.MustPool(DDR)
	hbm := p.MustPool(HBM)
	pl := NewSimplePlacement(len(p.Pools), ddr)
	for gi, ids := range groups {
		if mask&(1<<uint(gi)) == 0 {
			continue
		}
		for _, id := range ids {
			pl.Set(id, hbm)
		}
	}
	return pl
}

// TestSweepMatchesCost asserts the bit-exactness contract: for every
// mask, the compiled evaluator returns exactly the Duration Machine.Cost
// computes for the equivalent placement, both via full evaluation and
// via the incremental Gray-code walk.
func TestSweepMatchesCost(t *testing.T) {
	for _, threads := range []int{0, 5} {
		p := XeonMax9468()
		m := NewMachine(p)
		tr := sweepTrace()
		groups := sweepGroups()
		ddr, hbm := p.MustPool(DDR), p.MustPool(HBM)
		ev, err := m.CompileSweep(tr, threads, groups, ddr)
		if err != nil {
			t.Fatal(err)
		}
		n := uint32(1) << uint(len(groups))
		want := make([]units.Duration, n)
		for mask := uint32(0); mask < n; mask++ {
			res, err := m.Cost(tr, placementForMask(p, groups, mask), threads, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[mask] = res.Time
			if got := ev.EvalMask(mask, ddr, hbm); got != want[mask] {
				t.Errorf("threads=%d mask %03b: EvalMask %.17g != Cost %.17g",
					threads, mask, float64(got), float64(want[mask]))
			}
		}
		// Gray-code incremental walk over the full space.
		walker := ev.Clone()
		mask := grayCode(0)
		got := walker.EvalMask(mask, ddr, hbm)
		for i := uint32(0); ; {
			if got != want[mask] {
				t.Errorf("threads=%d gray step %d (mask %03b): Flip %.17g != Cost %.17g",
					threads, i, mask, float64(got), float64(want[mask]))
			}
			if i++; i >= n {
				break
			}
			bit := trailingZeros(i)
			mask = grayCode(i)
			to := ddr
			if mask&(1<<uint(bit)) != 0 {
				to = hbm
			}
			got = walker.Flip(bit, to)
		}
	}
}

func grayCode(i uint32) uint32 { return i ^ (i >> 1) }

func trailingZeros(i uint32) int {
	n := 0
	for i&1 == 0 {
		i >>= 1
		n++
	}
	return n
}

// TestSweepEvalGroups checks the unbounded-width probe entry point
// against Cost, including the all-DDR and multi-group cases.
func TestSweepEvalGroups(t *testing.T) {
	p := XeonMax9468()
	m := NewMachine(p)
	tr := sweepTrace()
	groups := sweepGroups()
	ddr, hbm := p.MustPool(DDR), p.MustPool(HBM)
	ev, err := m.CompileSweep(tr, 0, groups, ddr)
	if err != nil {
		t.Fatal(err)
	}
	for _, on := range [][]int{nil, {0}, {2}, {0, 2}, {0, 1, 2}} {
		var mask uint32
		for _, g := range on {
			mask |= 1 << uint(g)
		}
		res, err := m.Cost(tr, placementForMask(p, groups, mask), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.EvalGroups(on, ddr, hbm); got != res.Time {
			t.Errorf("EvalGroups(%v) = %.17g, want %.17g", on, float64(got), float64(res.Time))
		}
	}
}

// TestSweepCloneIndependence verifies clones share no mutable state.
func TestSweepCloneIndependence(t *testing.T) {
	p := XeonMax9468()
	m := NewMachine(p)
	ddr, hbm := p.MustPool(DDR), p.MustPool(HBM)
	ev, err := m.CompileSweep(sweepTrace(), 0, sweepGroups(), ddr)
	if err != nil {
		t.Fatal(err)
	}
	a := ev.Clone()
	b := ev.Clone()
	t0 := a.EvalMask(0, ddr, hbm)
	t5 := b.EvalMask(5, ddr, hbm)
	if got := a.total(); got != t0 {
		t.Errorf("clone a perturbed by clone b: %v != %v", got, t0)
	}
	if got := b.total(); got != t5 {
		t.Errorf("clone b perturbed: %v != %v", got, t5)
	}
}

// TestSweepRejectsBadInput covers compile-time validation.
func TestSweepRejectsBadInput(t *testing.T) {
	p := XeonMax9468()
	m := NewMachine(p)
	ddr := p.MustPool(DDR)
	if _, err := m.CompileSweep(nil, 0, nil, ddr); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := m.CompileSweep(sweepTrace(), 0, nil, PoolID(9)); err == nil {
		t.Error("out-of-range default pool accepted")
	}
	if _, err := m.CompileSweep(sweepTrace(), 0, [][]shim.AllocID{{1}, {1}}, ddr); err == nil {
		t.Error("allocation in two groups accepted")
	}
	bad := &trace.Trace{Phases: []trace.Phase{{
		Streams: []trace.Stream{{Alloc: 1, Bytes: -1, Kind: trace.Read}},
	}}}
	if _, err := m.CompileSweep(bad, 0, nil, ddr); err == nil {
		t.Error("negative bytes accepted")
	}
}

// TestNoisyTimeMatchesCost asserts noise replay reproduces Cost's noisy
// measurements draw for draw.
func TestNoisyTimeMatchesCost(t *testing.T) {
	p := XeonMax9468()
	m := NewMachine(p)
	tr := sweepTrace()
	pl := placementForMask(p, sweepGroups(), 2)
	det, err := m.Cost(tr, pl, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rngA := xrand.New(77)
	rngB := xrand.New(77)
	for i := 0; i < 10; i++ {
		res, err := m.Cost(tr, pl, 0, rngA)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.NoisyTime(det.Time, rngB); got != res.Time {
			t.Errorf("draw %d: NoisyTime %.17g != Cost %.17g", i, float64(got), float64(res.Time))
		}
	}
}

// TestSplitIntoMatchesSplit checks the allocation-free placement fast
// paths agree with the allocating Split.
func TestSplitIntoMatchesSplit(t *testing.T) {
	sp := NewSimplePlacement(2, 0)
	sp.Set(3, 1)
	ip := &InterleavedPlacement{Pools: 2, Across: []PoolID{0, 1}}
	out := make([]float64, 2)
	for _, id := range []shim.AllocID{1, 3} {
		sp.SplitInto(id, out)
		want := sp.Split(id)
		for i := range out {
			if out[i] != want[i] {
				t.Errorf("SimplePlacement.SplitInto(%d)[%d] = %v, want %v", id, i, out[i], want[i])
			}
		}
	}
	ip.SplitInto(1, out)
	want := ip.Split(1)
	for i := range out {
		if out[i] != want[i] {
			t.Errorf("InterleavedPlacement.SplitInto[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

// TestSweepEvalAllocFree asserts the sweep inner loop — incremental flip
// plus full mask evaluation — performs zero allocations.
func TestSweepEvalAllocFree(t *testing.T) {
	p := XeonMax9468()
	m := NewMachine(p)
	ddr, hbm := p.MustPool(DDR), p.MustPool(HBM)
	ev, err := m.CompileSweep(sweepTrace(), 0, sweepGroups(), ddr)
	if err != nil {
		t.Fatal(err)
	}
	var sink units.Duration
	allocs := testing.AllocsPerRun(100, func() {
		sink = ev.EvalMask(5, ddr, hbm)
		sink += ev.Flip(0, hbm)
		sink += ev.Flip(0, ddr)
	})
	if allocs != 0 {
		t.Errorf("sweep evaluation allocates %.1f allocs/op, want 0", allocs)
	}
	_ = sink
}

// TestSweepRawTraceMatchesCost: on a raw iterative trace (the same
// loop body emitted many times, never adjacent, as no canonical trace
// is) evaluation stays bit-exact against Machine.Cost on the full
// per-phase sum, for full evaluations and Gray-code flips alike.
func TestSweepRawTraceMatchesCost(t *testing.T) {
	base := sweepTrace()
	const iters = 17
	tr := &trace.Trace{}
	for it := 0; it < iters; it++ {
		tr.Phases = append(tr.Phases, base.Phases...)
	}
	m := NewMachine(XeonMax9468())
	groups := sweepGroups()
	ddr := m.P.MustPool(DDR)
	hbm := m.P.MustPool(HBM)

	ev, err := m.CompileSweep(tr, 0, groups, ddr)
	if err != nil {
		t.Fatal(err)
	}
	for mask := uint32(0); mask < 1<<uint(len(groups)); mask++ {
		res, err := m.Cost(tr, placementForMask(m.P, groups, mask), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.EvalMask(mask, ddr, hbm); got != res.Time {
			t.Errorf("mask %03b: EvalMask %.17g, Cost %.17g", mask, float64(got), float64(res.Time))
		}
	}
	// Gray-code walk over the same masks: flips must re-derive exactly
	// the phases the flipped group touches.
	det := ev.EvalMask(0, ddr, hbm)
	for g := uint32(1); g < 1<<uint(len(groups)); g++ {
		bit := 0
		for ; g&(1<<uint(bit)) == 0; bit++ {
		}
		mask := g ^ (g >> 1)
		to := ddr
		if mask&(1<<uint(bit)) != 0 {
			to = hbm
		}
		det = ev.Flip(bit, to)
		res, err := m.Cost(tr, placementForMask(m.P, groups, mask), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if det != res.Time {
			t.Errorf("gray mask %03b: Flip %.17g, Cost %.17g", mask, float64(det), float64(res.Time))
		}
	}
}
