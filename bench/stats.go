package main

import (
	"math"
	"sort"
	"time"
)

// The reporting rules of the harness live in this file so that every number
// printed anywhere follows the same conventions (see README.md, "Reporting
// rules"): a timing is a median plus the highest percentile that still has
// at least ten samples beyond it, always with its sample count; spreads are
// the inter-quartile distance as a share of the median, with quartiles
// computed exactly as Python's statistics.quantiles(values, n=4) does,
// because that is what the driver uses to accept or reject the benchmark.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns (q1, q2, q3) with the "exclusive" method of Python's
// statistics.quantiles(xs, n=4). With fewer than two values all three equal
// the single value (or 0).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		// delta is taken after clamping, so small samples extrapolate
		// beyond their extremes exactly as Python does.
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the distance between the first and third quartile as a share
// of the median: the driver's steadiness statistic.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// bestOfWindows is the CPU-time rule. The same fixed work is repeated
// several times and each repetition's CPU clock is read at the same
// points, giving grid[repetition][window]. A point is one at which the
// program under test is not running — a daemon between two blocks of a
// closed loop, a ronsim child at exit — because a reading taken while it
// runs is as late as the harness was scheduled, which moves CPU from one
// window to the next and biases the minima low. On a shared host a neighbour's
// burst inflates whichever windows it overlaps (a run of the same binary
// read 7.6 s at 12 % steal and 8.6 s at 22 %); it never makes one cheaper.
// So for every window the cheapest repetition is the least disturbed
// reading of that piece of work, and the sum of those minima estimates the
// undisturbed cost of the whole. It degrades to a plain minimum over
// repetitions with one window, and to the plain total with one repetition.
func bestOfWindows(grid [][]time.Duration) time.Duration {
	if len(grid) == 0 {
		return 0
	}
	var sum time.Duration
	for w := range grid[0] {
		best := grid[0][w]
		for _, rep := range grid[1:] {
			if w < len(rep) && rep[w] < best {
				best = rep[w]
			}
		}
		sum += best
	}
	return sum
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailLevels are the percentiles a timing may be reported at, ascending.
var tailLevels = []float64{90, 99, 99.9, 99.99}

// tailLevel returns the highest percentile of tailLevels that still has at
// least ten of n samples beyond it, or 0 when not even p90 qualifies (n <
// 100): a tail read off fewer than ten samples is noise, not a percentile.
func tailLevel(n int) float64 {
	level := 0.0
	for _, p := range tailLevels {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100 × (1 − 0.9) is 9.999…98 in floating point
			level = p
		}
	}
	return level
}

// timing is the canonical summary of a latency-like sample.
type timing struct {
	N       int
	Median  float64
	TailP   float64 // 0 when the sample is too small for any tail
	TailVal float64
}

// summarize applies the timing rule to xs.
func summarize(xs []float64) timing {
	t := timing{N: len(xs), Median: median(xs)}
	if p := tailLevel(len(xs)); p > 0 {
		t.TailP, t.TailVal = p, percentile(xs, p)
	}
	return t
}

// openLoopSample is one request of an open-loop (scheduled) load: when it
// was due, when the generator actually sent it, and when its reply arrived.
type openLoopSample struct {
	Due, Sent, Done time.Duration // offsets from the start of the phase
}

// openLoopLatencies times each request from when it was DUE, not from when
// it was sent, so the wait a stall imposes on every later request counts
// (coordinated omission); lateness is how far behind schedule the generator
// itself ran.
func openLoopLatencies(samples []openLoopSample) (latencyUs, latenessUs []float64) {
	for _, s := range samples {
		latencyUs = append(latencyUs, micros(s.Done-s.Due))
		late := s.Sent - s.Due
		if late < 0 {
			late = 0
		}
		latenessUs = append(latenessUs, micros(late))
	}
	return latencyUs, latenessUs
}

// rmsre is the paper's Eq. 5 over relative errors with |E| clamped at clamp.
func rmsre(errs []float64, clamp float64) float64 {
	if len(errs) == 0 {
		return 0
	}
	var sum float64
	for _, e := range errs {
		a := math.Min(math.Abs(e), clamp)
		sum += a * a
	}
	return math.Sqrt(sum / float64(len(errs)))
}

// relativeError is the paper's Eq. 4: E = (X̂ − X) / min(X̂, X).
func relativeError(pred, actual float64) float64 {
	return (pred - actual) / math.Min(pred, actual)
}
