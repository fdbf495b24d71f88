package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a percentile with fewer samples beyond it is decided by a handful of
// outliers and is not reported at all.
const minBeyond = 10

// samplesFor returns how many samples a run needs before percentile p
// (0 < p < 100) has minBeyond samples above its nearest rank.
func samplesFor(p float64) int {
	n := 1
	for n-rank(p, n) < minBeyond {
		n++
	}
	return n
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs, refusing when
// fewer than minBeyond samples lie above it. xs is sorted in place.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	r := rank(p, n)
	if p > 50 && n-r < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", p, samplesFor(p), n)
	}
	sort.Float64s(xs)
	return xs[r-1], nil
}

// median is the nearest-rank 50th percentile; it needs one sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, 50)
	return v
}

// rate is work items completed per second of busy time.
func rate(items int, busy time.Duration) float64 {
	if busy <= 0 {
		return 0
	}
	return float64(items) / busy.Seconds()
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
