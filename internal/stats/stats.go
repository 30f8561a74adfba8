// Package stats implements the evaluation statistics of the paper: the
// relative prediction error E (Eq. 4), the root mean square relative error
// RMSRE (Eq. 5), empirical CDFs and percentiles, Pearson correlation, the
// coefficient of variation (including the paper's stationary-segment
// weighted variant), and time-series down-sampling.
package stats

import (
	"math"
	"sort"
)

// RelativeError returns E = (pred - actual) / min(pred, actual), the
// paper's Eq. (4). The min denominator makes over- and under-estimation by
// the same factor w yield the same |E| = w-1.
//
// Degenerate inputs: if both are zero the error is 0; if exactly one is
// zero (or negative) the error is +Inf or -Inf by the sign of the
// numerator, matching the "wrong by an unbounded factor" reading. RMSRE
// and ClampError bound such an error at ErrClamp.
func RelativeError(pred, actual float64) float64 {
	if pred == actual {
		return 0
	}
	m := min(pred, actual)
	if m <= 0 {
		if pred > actual {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	return (pred - actual) / m
}

// ErrClamp bounds |E| wherever errors are aggregated: in RMSRE and in the
// prediction service's error windows. The bound is this repository's
// choice, not the paper's. A zero forecast or a zero-byte transfer has
// |E| = ∞, and one such epoch would otherwise decide a trace's RMSRE on
// its own. |E| = 10 is a forecast off by a factor of 11, past which the
// size of the miss says nothing more about the predictor, and the bound
// keeps every stored error finite.
const ErrClamp = 10.0

// ClampError bounds e to [-ErrClamp, ErrClamp]. NaN counts as +ErrClamp,
// an overprediction of unknown size.
func ClampError(e float64) float64 {
	if !(e <= ErrClamp) {
		return ErrClamp
	}
	return max(e, -ErrClamp)
}

// RMSRE returns sqrt(mean(E_i²)), the paper's Eq. (5), over the errors of
// all parts, each clamped by ClampError before squaring (0 when there are
// none). The squares are summed part by part in order, so a ring passes
// its two segments oldest first and gets the same bits as one slice.
func RMSRE(parts ...[]float64) float64 {
	var sum float64
	n := 0
	for _, part := range parts {
		for _, e := range part {
			e = ClampError(e)
			sum += e * e
		}
		n += len(part)
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance (0 for fewer than 2 samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoV returns the coefficient of variation: stddev/mean (0 if the mean is
// not positive).
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m <= 0 {
		return 0
	}
	return StdDev(xs) / m
}

// SegmentedCoV returns the paper's §6.1.3 variant: the series is split at
// the given boundaries (indices of the first sample of each new stationary
// period, ascending), the CoV of each segment is computed, and the segment
// CoVs are averaged weighted by segment length. Outliers should already be
// removed by the caller.
func SegmentedCoV(xs []float64, boundaries []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	starts := append([]int{0}, boundaries...)
	sort.Ints(starts)
	var weighted float64
	var total int
	for i, s := range starts {
		e := len(xs)
		if i+1 < len(starts) {
			e = starts[i+1]
		}
		if s < 0 {
			s = 0
		}
		if e > len(xs) {
			e = len(xs)
		}
		if e <= s {
			continue
		}
		seg := xs[s:e]
		weighted += CoV(seg) * float64(len(seg))
		total += len(seg)
	}
	if total == 0 {
		return 0
	}
	return weighted / float64(total)
}

// Median returns the median (0 for an empty slice).
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between order statistics.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	return sortedPercentile(tmp, p)
}

func sortedPercentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Pearson returns the Pearson correlation coefficient of the paired
// samples (0 when undefined).
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an ECDF from the samples. Infinite values are kept: +Inf
// sorts last and -Inf first, so fractions remain meaningful.
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Points returns up to n evenly spaced (x, P(X≤x)) pairs for printing a
// CDF curve.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	pts := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / max(n-1, 1)
		x := c.sorted[idx]
		pts = append(pts, [2]float64{x, float64(idx+1) / float64(len(c.sorted))})
	}
	return pts
}

// Downsample keeps every k-th element of xs starting at offset, modelling
// the paper's §6.1.6 re-sampling of 3-minute traces to 6/24/45-minute
// transfer intervals.
func Downsample(xs []float64, k, offset int) []float64 {
	if k <= 1 {
		return append([]float64(nil), xs...)
	}
	var out []float64
	for i := offset; i < len(xs); i += k {
		out = append(out, xs[i])
	}
	return out
}

// FractionAbove returns the fraction of samples with |x| > thresh.
func FractionAbove(xs []float64, thresh float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var n int
	for _, x := range xs {
		if math.Abs(x) > thresh {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
