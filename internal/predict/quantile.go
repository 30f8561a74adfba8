package predict

import (
	"math"

	"repro/internal/stats"
)

// Quantiles is a three-point summary of a throughput forecast
// distribution. P10 ≤ P50 ≤ P90 always holds; all values are positive
// and finite when produced by this package.
type Quantiles struct {
	P10, P50, P90 float64
}

// QuantilePredictor is implemented by predictors that can emit a
// forecast distribution rather than a single point. Point predictors
// gain the interface through ResidualQuantile, which derives empirical
// quantiles from the window of recent Eq.-4 relative errors; ECM
// implements it natively from its conditional histograms.
type QuantilePredictor interface {
	// PredictQuantiles returns the P10/P50/P90 forecast for the next
	// value and whether enough history exists to calibrate one.
	PredictQuantiles() (Quantiles, bool)
}

// residualMinSamples is the minimum number of scored residuals before
// empirical quantiles are considered calibrated — and before an Ensemble
// family competes in selection. Below it the tails are pure extrapolation
// from one or two errors.
const residualMinSamples = 3

// ResidualWindow keeps a bounded ring of recent Eq.-4 relative errors
// E = (X̂-X)/min(X̂,X) for one predictor and converts a point forecast
// into empirical throughput quantiles by inverting the error quantiles:
//
//	E ≥ 0 (overprediction):  X = X̂ / (1+E)
//	E < 0 (underprediction): X = X̂ · (1-E)
//
// X is monotone decreasing in E, so the throughput P10 comes from the
// error P90 and vice versa. Errors are bounded by stats.ClampError on
// entry, so every stored value is finite even when a degenerate pair
// scored ±Inf.
//
// The errors sit in an orderedRing, so QuantilesFor reads their order
// statistics without sorting and Score and QuantilesFor allocate nothing.
type ResidualWindow struct {
	ring orderedRing
	// sum caches summary's result until the window next changes: a
	// predict and the observe that follows it read the same window.
	sum struct {
		rmsre, meanAbs float64
		ok             bool
	}
}

// NewResidualWindow returns a window retaining the last n errors (at
// least one).
func NewResidualWindow(n int) *ResidualWindow {
	w := newResidualWindow(n)
	return &w
}

func newResidualWindow(n int) ResidualWindow {
	return ResidualWindow{ring: newOrderedRing(max(n, 1))}
}

// Score records the Eq.-4 error of one (forecast, actual) pair. Pairs
// with a non-positive or non-finite forecast are scored as a maximal
// overprediction (+stats.ErrClamp) rather than skipped, so a
// pathological predictor widens its own intervals instead of silently
// keeping them tight.
func (w *ResidualWindow) Score(forecast, actual float64) {
	e := stats.ErrClamp
	if isFinitePositive(forecast) {
		e = stats.RelativeError(forecast, actual)
	}
	w.Push(e)
}

// Push records an error value, bounded by stats.ClampError.
func (w *ResidualWindow) Push(e float64) {
	w.ring.push(stats.ClampError(e))
	w.sum.ok = false
}

// Count returns the number of retained errors.
func (w *ResidualWindow) Count() int { return w.ring.count() }

// Reset discards all retained errors.
func (w *ResidualWindow) Reset() {
	w.ring.reset()
	w.sum.ok = false
}

// Errors returns the retained errors oldest-first, appended to dst.
func (w *ResidualWindow) Errors(dst []float64) []float64 { return w.ring.chronological(dst) }

// summary returns the window's RMSRE (Eq. 5) and mean |E|, both 0 while
// it is empty. The sums run oldest first, not in ring-storage order: float
// addition is not associative, and a window rebuilt by SetErrors is stored
// compacted while a live one is rotated. Identical contents must give
// bit-identical statistics either way, or a spill/fault cycle would change
// served forecasts.
func (w *ResidualWindow) summary() (rmsre, meanAbs float64) {
	r := &w.ring
	if r.count() == 0 {
		return 0, 0
	}
	if !w.sum.ok {
		older, newer := r.buf[r.next:], r.buf[:r.next]
		var abs float64
		for _, part := range [2][]float64{older, newer} {
			for _, e := range part {
				abs += math.Abs(e)
			}
		}
		w.sum.rmsre, w.sum.meanAbs, w.sum.ok = stats.RMSRE(older, newer), abs/float64(r.count()), true
	}
	return w.sum.rmsre, w.sum.meanAbs
}

// SetErrors replaces the window contents with errs (oldest-first),
// keeping at most the window capacity (the most recent entries win).
func (w *ResidualWindow) SetErrors(errs []float64) {
	if n := w.ring.capacity(); len(errs) > n {
		errs = errs[len(errs)-n:]
	}
	w.Reset()
	r := &w.ring
	for _, e := range errs {
		r.buf = append(r.buf, stats.ClampError(e))
	}
	r.resort()
}

// QuantilesFor converts a point forecast into empirical throughput
// quantiles using the retained error distribution. ok is false until
// residualMinSamples errors have been scored or when the forecast is
// not a positive finite value.
func (w *ResidualWindow) QuantilesFor(forecast float64) (Quantiles, bool) {
	errs := w.ring.sorted
	if len(errs) < residualMinSamples || !isFinitePositive(forecast) {
		return Quantiles{}, false
	}
	// X is monotone decreasing in E: the largest errors (overprediction)
	// map to the lowest throughputs.
	return Quantiles{
		P10: invertRelErr(forecast, percentileSorted(errs, 0.90)),
		P50: invertRelErr(forecast, percentileSorted(errs, 0.50)),
		P90: invertRelErr(forecast, percentileSorted(errs, 0.10)),
	}, true
}

// invertRelErr solves Eq. 4 for the actual value X given the forecast
// and an error quantile e.
func invertRelErr(forecast, e float64) float64 {
	if e >= 0 {
		return forecast / (1 + e)
	}
	return forecast * (1 - e)
}

// percentileSorted returns the p-th (0..1) percentile of an ascending
// slice with linear interpolation between order statistics.
func percentileSorted(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 1 {
		return xs[0]
	}
	pos := p * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return xs[n-1]
	}
	frac := pos - float64(i)
	return xs[i] + frac*(xs[i+1]-xs[i])
}

func isFinitePositive(x float64) bool {
	return x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x)
}

// ResidualQuantile adapts any point HB predictor into a
// QuantilePredictor: each Observe first scores the inner predictor's
// standing forecast against the actual value, then feeds the inner
// predictor. It implements both HB and QuantilePredictor and is the
// standalone counterpart of the per-family residual tracking in Ensemble.
type ResidualQuantile struct {
	inner HB
	win   *ResidualWindow
}

// NewResidualQuantile wraps inner with a residual window of the given
// size (window ≤ 0 means 50, the service's default error window).
func NewResidualQuantile(inner HB, window int) *ResidualQuantile {
	if window <= 0 {
		window = 50
	}
	return &ResidualQuantile{inner: inner, win: NewResidualWindow(window)}
}

// Name implements HB.
func (r *ResidualQuantile) Name() string { return r.inner.Name() }

// Predict implements HB.
func (r *ResidualQuantile) Predict() (float64, bool) { return r.inner.Predict() }

// Observe implements HB.
func (r *ResidualQuantile) Observe(x float64) {
	if f, ok := r.inner.Predict(); ok {
		r.win.Score(f, x)
	}
	r.inner.Observe(x)
}

// Reset implements HB.
func (r *ResidualQuantile) Reset() {
	r.inner.Reset()
	r.win.Reset()
}

// PredictQuantiles implements QuantilePredictor.
func (r *ResidualQuantile) PredictQuantiles() (Quantiles, bool) {
	f, ok := r.inner.Predict()
	if !ok {
		return Quantiles{}, false
	}
	return r.win.QuantilesFor(f)
}

// Window exposes the residual window (for serialization and tests).
func (r *ResidualQuantile) Window() *ResidualWindow { return r.win }
