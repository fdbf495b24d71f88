package npblu

import (
	"math"
	"runtime"
	"testing"

	"hmpt/internal/workloads"
)

func TestLUConverges(t *testing.T) {
	l := &LU{Cfg: Config{RealN: 16, PaperN: 408, Iters: 6}}
	env := workloads.NewEnv(0, 1, 5)
	if err := l.Setup(env); err != nil {
		t.Fatal(err)
	}
	if err := l.Run(env); err != nil {
		t.Fatal(err)
	}
	t.Logf("error norms: %v", l.ErrNorms())
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestLUThreadCountInvariant: LU's error norms are bit-identical for
// any execution thread count. GOMAXPROCS is raised so that 2 and 4
// workers really run, even on a host with fewer CPUs; under -race this
// is also the test that catches a parallel loop reading rows another
// worker writes.
func TestLUThreadCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var want []float64
	for _, threads := range []int{1, 2, 4} {
		l := &LU{Cfg: Config{RealN: 16, PaperN: 408, Iters: 4}}
		env := workloads.NewEnv(threads, 1, 5)
		if got := env.ExecThreads(); got != threads {
			t.Fatalf("ExecThreads = %d, want %d", got, threads)
		}
		if err := l.Setup(env); err != nil {
			t.Fatal(err)
		}
		if err := l.Run(env); err != nil {
			t.Fatal(err)
		}
		got := l.ErrNorms()
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%d threads: %d norms, want %d", threads, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%d threads: norm %d = %v, want %v (1 thread)", threads, i, got[i], want[i])
			}
		}
	}
}

func TestLUFootprintAndAllocs(t *testing.T) {
	l := &LU{Cfg: Config{RealN: 16, PaperN: 408, Iters: 1}}
	env := workloads.NewEnv(0, 1, 5)
	if err := l.Setup(env); err != nil {
		t.Fatal(err)
	}
	if got := len(env.Alloc.All()); got != 7 {
		t.Errorf("allocations = %d, want 7", got)
	}
	gb := env.Alloc.TotalSimBytes().GBs()
	if gb < 7.5 || gb > 10.5 {
		t.Errorf("simulated footprint %.2f GB outside [7.5,10.5] (paper: 8.65)", gb)
	}
}

// TestLUResidDominates checks the paper's LU observation: the residual
// allocation (~25-30 % of the footprint) carries the dominant traffic.
func TestLUResidDominates(t *testing.T) {
	l := &LU{Cfg: Config{RealN: 16, PaperN: 408, Iters: 4}}
	env := workloads.NewEnv(0, 1, 5)
	if err := l.Setup(env); err != nil {
		t.Fatal(err)
	}
	if err := l.Run(env); err != nil {
		t.Fatal(err)
	}
	by := env.Rec.Trace().BytesByAlloc()
	rsd := by[l.rsd.ID()]
	var total, maxOther int64
	for id, b := range by {
		total += int64(b)
		if id != l.rsd.ID() && int64(b) > maxOther {
			maxOther = int64(b)
		}
	}
	if int64(rsd) <= maxOther {
		t.Errorf("rsd traffic %d not dominant (max other %d)", rsd, maxOther)
	}
	if frac := float64(rsd) / float64(total); frac < 0.4 {
		t.Errorf("rsd traffic fraction %.2f below 0.4", frac)
	}
}

func TestLUSetupErrors(t *testing.T) {
	env := workloads.NewEnv(0, 1, 1)
	for _, cfg := range []Config{
		{RealN: 4, PaperN: 408, Iters: 1},
		{RealN: 16, PaperN: 8, Iters: 1},
		{RealN: 16, PaperN: 408, Iters: 0},
	} {
		l := &LU{Cfg: cfg}
		if err := l.Setup(env); err == nil {
			t.Errorf("Setup(%+v) should fail", cfg)
		}
	}
}
