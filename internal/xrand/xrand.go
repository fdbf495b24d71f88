// Package xrand implements a small, deterministic, splittable PRNG
// (PCG-XSH-RR 64/32 state with 64-bit output via two draws folded into a
// single xorshift-multiply generator).
//
// Every stochastic component of the simulator (IBS sampling jitter,
// run-to-run noise, workload data) draws from an xrand.Rand seeded from
// the experiment configuration, so whole analyses replay bit-identically.
// math/rand is avoided because its global state and historical Seed
// semantics make reproducible fan-out awkward.
package xrand

import "math"

// Rand is a deterministic pseudo-random generator. The zero value is not
// valid; use New or Split.
type Rand struct {
	state uint64
	inc   uint64
}

// New returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func New(seed uint64) *Rand {
	r := seeded(seed)
	return &r
}

// seeded returns the generator New(seed) points to, by value.
func seeded(seed uint64) Rand {
	r := Rand{inc: 0xda3e39cb94b95bdb | 1}
	r.state = splitmix(&seed)
	r.state += splitmix(&seed)
	r.Uint64()
	return r
}

// splitmix advances a splitmix64 state and returns the next output. It is
// used for seeding so that nearby seeds yield uncorrelated streams.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent generator from r, keyed by label. Streams
// from the parent and the child do not overlap in practice; Split is how
// subsystems (sampler, workload data, run noise) get private streams.
func (r *Rand) Split(label uint64) *Rand {
	c := r.SplitValue(label)
	return &c
}

// SplitValue is Split returning the child by value: it advances r
// exactly as Split does and the child's stream is the same, so a caller
// holding many children can keep them in one slice instead of one heap
// object each.
func (r *Rand) SplitValue(label uint64) Rand {
	return seeded(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	// xorshift64* step keyed with a PCG-style stream increment.
	r.state = r.state*6364136223846793005 + r.inc
	z := r.state
	z ^= z >> 33
	z *= 0xff51afd7ed558ccd
	z ^= z >> 33
	z *= 0xc4ceb9fe1a85ec53
	z ^= z >> 33
	return z
}

// Uint32 returns the next 32 pseudo-random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Int63 returns a non-negative pseudo-random int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a pseudo-random int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// stddev 1, using the Box-Muller transform.
func (r *Rand) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			v := r.Float64()
			return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
