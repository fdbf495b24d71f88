// Package stats provides the small set of descriptive statistics the
// tuner and the benchmark harness need: sample moments, confidence
// intervals, percentiles, and least-squares fits.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations and answers summary queries. The zero
// value is an empty sample ready for use.
type Sample struct {
	xs []float64
}

// Add appends one observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// AddAll appends all observations.
func (s *Sample) AddAll(xs ...float64) { s.xs = append(s.xs, xs...) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns a copy of the observations.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func (s *Sample) Mean() float64 { return Mean(s.xs) }

// Stddev returns the sample standard deviation (n-1 denominator).
func (s *Sample) Stddev() float64 { return Stddev(s.xs) }

// Min returns the smallest observation, or NaN for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation, or NaN for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// CI95 returns the half-width of the normal-approximation 95 % confidence
// interval of the mean. For n < 2 it returns 0.
func (s *Sample) CI95() float64 { return CI95(s.xs) }

// Percentile returns the p-quantile (0 ≤ p ≤ 1) by linear interpolation
// between closest ranks. It returns NaN for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return math.NaN()
	}
	sorted := s.Values()
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String summarises the sample as "mean ± ci95 (n=..)".
func (s *Sample) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean(), s.CI95(), s.N())
}

// Mean returns the arithmetic mean of xs, or NaN if empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Stddev returns the sample standard deviation of xs (n-1 denominator).
// It returns 0 for fewer than two observations.
func Stddev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// CI95 returns the half-width of the normal-approximation 95 %
// confidence interval of the mean of xs. For fewer than two
// observations it returns 0.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return 1.96 * Stddev(xs) / math.Sqrt(float64(n))
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// otherwise it returns NaN.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// LinearFit fits y = a + b*x by ordinary least squares and returns the
// intercept a, slope b, and the coefficient of determination R².
// It requires len(xs) == len(ys) and at least two points.
func LinearFit(xs, ys []float64) (a, b, r2 float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, 0, fmt.Errorf("stats: degenerate x values")
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		r2 = 1
	} else {
		ssRes := 0.0
		for i := range xs {
			d := ys[i] - (a + b*xs[i])
			ssRes += d * d
		}
		r2 = 1 - ssRes/ssTot
	}
	return a, b, r2, nil
}

// RelErr returns |got-want| / |want|, or |got| if want is zero.
func RelErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
