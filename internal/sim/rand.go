package sim

import (
	"math"
	"math/rand"
)

// RNG wraps a seeded pseudo-random source with the distributions the
// simulator needs. Each traffic source and path owns its own RNG stream so
// component behaviour is independent of evaluation order.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// DeriveSeed mixes a base seed with a stream identifier through the
// splitmix64 finalizer, yielding decorrelated per-stream seeds. Unlike
// additive schemes (seed + constant), every base seed — including 0 —
// produces a distinct, well-scrambled seed per stream, and no two
// (seed, stream) pairs collide by simple arithmetic coincidence.
func DeriveSeed(seed int64, stream uint64) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)) ^ stream))
}

// splitmix64 is the finalizer of the SplitMix64 generator (Steele et al.),
// a strong 64-bit avalanche mix.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Fork derives an independent child stream. Successive calls yield distinct
// streams; forking does not perturb the parent beyond one draw.
func (g *RNG) Fork() *RNG {
	return NewRNG(g.r.Int63())
}

// Intn returns a uniform sample in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Exp returns an exponential sample with the given mean.
func (g *RNG) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Normal returns a normal sample with the given mean and standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return g.r.NormFloat64()*stddev + mean
}

// Pareto returns a Pareto sample with shape alpha and scale xm (minimum
// value). For alpha <= 1 the distribution has infinite mean; callers that
// need a finite mean should pass alpha > 1.
func (g *RNG) Pareto(alpha, xm float64) float64 {
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }
