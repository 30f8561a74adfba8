package main

import (
	"fmt"
	"math"
)

// The service workloads are driven by the harness's OWN seeded generator.
// It reproduces the law of predsvc.SyntheticSeries — a per-path long-run
// level with 8 % multiplicative noise, 2 % level shifts, 3 % one-off outlier
// dips, and matching pre-flow measurements for the FB side — but shares no
// code with it (not even the RNG), so a later change to the library cannot
// silently change what the benchmark asks of the daemon.

// rng is splitmix64: tiny, fast, and fully specified here.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ (stream+1)*0xD1B54A32D192ED03}
	r.u64() // decorrelate nearby seeds
	return r
}

func (r *rng) u64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.u64()>>11) / (1 << 53) }

func (r *rng) uniform(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

func (r *rng) bool(p float64) bool { return r.float() < p }

// normal returns a standard normal deviate (Box–Muller, one value per call).
func (r *rng) normal() float64 {
	u1 := 1 - r.float() // (0, 1]
	u2 := r.float()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// measurement is one epoch's a-priori inputs for the FB predictor.
type measurement struct {
	RTT, Loss, AvailBw float64
}

// pathGen generates one path's series epoch by epoch, so a run can go on
// for as many epochs as its time budget allows and still be a pure function
// of (seed, path index, epoch).
type pathGen struct {
	Name  string
	r     *rng
	base  float64
	rtt   float64
	lossy bool
	level float64
}

func newPathGen(seed int64, idx int) *pathGen {
	r := newRNG(seed, uint64(idx))
	g := &pathGen{Name: fmt.Sprintf("p%04d", idx), r: r}
	g.base = r.uniform(2e6, 60e6)
	g.rtt = r.uniform(0.01, 0.2)
	g.lossy = r.bool(0.4)
	g.level = g.base * r.uniform(0.7, 1.3)
	return g
}

// next returns the epoch's pre-flow measurements and achieved throughput.
func (g *pathGen) next() (measurement, float64) {
	r := g.r
	if r.bool(0.02) { // level shift
		g.level = g.base * r.uniform(0.4, 1.6)
	}
	x := g.level * (1 + 0.08*r.normal())
	if r.bool(0.03) { // outlier dip
		x = g.level * r.uniform(0.2, 0.5)
	}
	if x < 1e4 {
		x = 1e4
	}
	loss := 0.0
	if g.lossy {
		loss = r.uniform(0.0005, 0.02)
	}
	m := measurement{
		RTT:     g.rtt * r.uniform(0.9, 1.2),
		Loss:    loss,
		AvailBw: g.level * r.uniform(0.7, 1.2),
	}
	return m, x
}
