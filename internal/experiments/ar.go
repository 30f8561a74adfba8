package experiments

import (
	"strconv"

	"repro/internal/stats"
)

// ar implements an autoregressive AR(p) one-step predictor fitted online
// with the Yule-Walker equations (solved by Levinson-Durbin recursion)
// over a sliding window of past observations.
//
// The paper excludes ARMA/ARIMA from its main evaluation because fitting
// them needs more history than its applications have (§5), but names them
// as future work (§7). AR(p) is the natural first rung of that ladder: it
// subsumes the mean-reverting behaviour of MA/EWMA while capturing short
// autocorrelation, and degrades gracefully to the window mean when the
// series is white. It is the ext-ar experiment's predictor.
type ar struct {
	order  int
	window int
	hist   []float64
	name   string
}

// newAR returns an AR(p) predictor fitted over the last window samples
// (window 0 defaults to max(8·p, 32)).
func newAR(order, window int) *ar {
	if order < 1 {
		order = 1
	}
	if window == 0 {
		window = 8 * order
		if window < 32 {
			window = 32
		}
	}
	if window < order+2 {
		window = order + 2
	}
	return &ar{order: order, window: window, name: "AR(" + strconv.Itoa(order) + ")"}
}

// Name implements predict.HB.
func (a *ar) Name() string { return a.name }

// Reset implements predict.HB.
func (a *ar) Reset() { a.hist = a.hist[:0] }

// Observe implements predict.HB.
func (a *ar) Observe(x float64) {
	a.hist = append(a.hist, x)
	if len(a.hist) > a.window {
		a.hist = a.hist[len(a.hist)-a.window:]
	}
}

// Predict implements predict.HB. With fewer than order+2 samples it falls
// back to the window mean (matching MA behaviour during warm-up).
func (a *ar) Predict() (float64, bool) {
	n := len(a.hist)
	if n == 0 {
		return 0, false
	}
	mean := stats.Mean(a.hist)
	if n < a.order+2 {
		return mean, true
	}
	phi, ok := a.fit()
	if !ok {
		return mean, true
	}
	// One-step forecast on the mean-removed series.
	var pred float64
	for k, c := range phi {
		pred += c * (a.hist[n-1-k] - mean)
	}
	pred += mean
	// Guard against explosive fits on near-degenerate windows: fall back
	// to the mean rather than forecasting outside 4× the observed range.
	lo, hi := minmax(a.hist)
	span := hi - lo
	if pred < lo-2*span || pred > hi+2*span {
		return mean, true
	}
	return pred, true
}

// fit solves the Yule-Walker equations for the current window via
// Levinson-Durbin, returning the AR coefficients (lag 1..order).
func (a *ar) fit() ([]float64, bool) {
	n := len(a.hist)
	p := a.order
	if maxLag := n - 2; p > maxLag {
		p = maxLag
	}
	if p < 1 {
		return nil, false
	}
	mean := stats.Mean(a.hist)
	// Biased autocovariance estimates r[0..p].
	r := make([]float64, p+1)
	for lag := 0; lag <= p; lag++ {
		var s float64
		for i := lag; i < n; i++ {
			s += (a.hist[i] - mean) * (a.hist[i-lag] - mean)
		}
		r[lag] = s / float64(n)
	}
	if r[0] <= 0 {
		return nil, false // constant series
	}

	// Levinson-Durbin recursion.
	phi := make([]float64, p)
	prev := make([]float64, p)
	e := r[0]
	for k := 1; k <= p; k++ {
		acc := r[k]
		for j := 1; j < k; j++ {
			acc -= phi[j-1] * r[k-j]
		}
		if e == 0 {
			return nil, false
		}
		kappa := acc / e
		copy(prev, phi)
		phi[k-1] = kappa
		for j := 1; j < k; j++ {
			phi[j-1] = prev[j-1] - kappa*prev[k-1-j]
		}
		e *= 1 - kappa*kappa
		if e <= 0 {
			// Numerically singular: keep the coefficients found so far.
			return phi[:k], true
		}
	}
	return phi, true
}
