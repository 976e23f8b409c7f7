// Package xrand provides a deterministic pseudo-random number generator
// for the simulations and the stochastic inference algorithm.
//
// Every stochastic component in this repository takes an explicit *RNG so
// experiments are reproducible bit-for-bit from a seed, and so parallel
// workers can each own an independent stream (via Derive) without locking.
// The core generator is xoshiro256** seeded through splitmix64, which is
// the recommended seeding procedure for the xoshiro family.
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** generator. It is NOT safe for concurrent use; give
// each goroutine its own stream via Derive.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the state and returns the next output; used for
// seeding and by Derive.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds give
// independent-looking streams; the zero seed is valid.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start at the all-zero state; splitmix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	x, s0, s1, s2, s3 := step(r.s[0], r.s[1], r.s[2], r.s[3])
	r.s = [4]uint64{s0, s1, s2, s3}
	return x
}

// step is one xoshiro256** step on a state held in four words, so a loop
// that draws many values can keep them in registers.
func step(s0, s1, s2, s3 uint64) (x, n0, n1, n2, n3 uint64) {
	x = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return x, s0, s1, s2, s3
}

// Derive maps (seed, ids...) to a substream seed through a splitmix64
// chain, so callers can address an unbounded family of independent
// streams by coordinate — New(Derive(base, i, j)) is the same generator
// no matter which worker asks, in which order, or how many siblings
// exist. This is what makes parallel Monte Carlo merges
// order-independent: stream identity comes from the coordinates, not
// from how many times a shared generator was advanced before the split.
func Derive(seed uint64, ids ...uint64) uint64 {
	state := seed
	out := splitmix64(&state)
	for _, id := range ids {
		// XOR each coordinate into the fully mixed previous output, not
		// the raw counter state: small structured ids (set 0 trial 1 vs
		// set 1 trial 0) must land on unrelated streams, which takes a
		// full avalanche between folds.
		state = out ^ id
		out = splitmix64(&state)
	}
	return out
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	un := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, un)
		}
	}
	return int(hi)
}

// IntnEach replaces every bound n in ns by a uniform draw in [0, n), in
// order: the same values, and the same generator state after, as one
// Intn call per bound. It panics on a bound <= 0, after the draws for the
// bounds before it.
func (r *RNG) IntnEach(ns []int) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i, n := range ns {
		if n <= 0 {
			r.s = [4]uint64{s0, s1, s2, s3}
			panic("xrand: IntnEach with a bound <= 0")
		}
		// Intn's Lemire rejection, on the state in locals.
		un := uint64(n)
		var x uint64
		x, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		hi, lo := bits.Mul64(x, un)
		if lo < un {
			thresh := (-un) % un
			for lo < thresh {
				x, s0, s1, s2, s3 = step(s0, s1, s2, s3)
				hi, lo = bits.Mul64(x, un)
			}
		}
		ns[i] = int(hi)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Exp returns an exponentially distributed sample with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp with rate <= 0")
	}
	// Use 1-U to avoid log(0).
	return -math.Log(1-r.Float64()) / rate
}

// Norm returns a normally distributed sample with the given mean and
// standard deviation, via the polar Box-Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
	}
}

// Pareto returns a sample from a Pareto (power-law) distribution with the
// given minimum xmin > 0 and exponent alpha > 1: P(X > x) = (xmin/x)^alpha.
func (r *RNG) Pareto(xmin, alpha float64) float64 {
	if xmin <= 0 || alpha <= 0 {
		panic("xrand: Pareto requires xmin > 0 and alpha > 0")
	}
	return xmin / math.Pow(1-r.Float64(), 1/alpha)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}
