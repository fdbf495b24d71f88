package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			t.Fatalf("split children collide at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) produced only %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestUniformity(t *testing.T) {
	r := New(11)
	const buckets, n = 16, 160000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %g", b, c, want)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(13)
	const n = 100000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %g too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %g too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation value %d", v)
		}
		seen[v] = true
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(19)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Errorf("shuffle changed multiset: sum %d != %d", got, sum)
	}
}

// TestSplitValueMatchesSplit: the by-value split advances the parent
// exactly as Split does and yields the same child stream.
func TestSplitValueMatchesSplit(t *testing.T) {
	a, b := New(23), New(23)
	for label := uint64(0); label < 8; label++ {
		pc, vc := a.Split(label), b.SplitValue(label)
		for i := 0; i < 16; i++ {
			if pc.Uint64() != vc.Uint64() {
				t.Fatalf("label %d: streams diverge at draw %d", label, i)
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("parents diverged after splitting")
	}
}
