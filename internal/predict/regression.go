package predict

import "math"

// regDim is the fixed feature dimension of the Regression predictor:
// [1, last-X, mean of last-K X, avail-bw, window-limit, Mathis-rate],
// all in Mbps so the normal equations stay well conditioned.
const regDim = 6

// RegressionConfig tunes the online least-squares predictor.
type RegressionConfig struct {
	// forget is the exponential forgetting factor β applied to the
	// accumulated normal equations per observation (0 < β ≤ 1, default
	// 0.97 ≈ a ~30-sample memory).
	forget float64
	// ridge is the Tikhonov regularizer λ added to the normal matrix
	// diagonal at solve time (default 1e-3), which keeps the solve
	// stable while features are still collinear early in a path's life.
	ridge float64
	// lastK is how many recent throughputs feed the history features
	// (default 8).
	lastK int
}

func (c RegressionConfig) defaults() RegressionConfig {
	if c.forget <= 0 || c.forget > 1 {
		c.forget = 0.97
	}
	if c.ridge <= 0 {
		c.ridge = 1e-3
	}
	if c.lastK <= 0 {
		c.lastK = 8
	}
	return c
}

// Regression is the Vazhkudai & Schopf-style online least-squares
// predictor: it regresses the next throughput on path features — RTT,
// loss rate, available bandwidth (fed via SetFeatures from FB-side
// measurements) and the last K throughputs — using exponentially
// decayed normal equations A ← βA + zzᵀ, b ← βb + z·y solved with a
// small fixed-size Cholesky factorization. It implements HB; calling
// SetFeatures before each Observe is optional (without features it
// degrades to a history-only autoregression).
//
// Forecasts are guarded the same way Holt-Winters forecasts are clamped
// in the serving layer: a degenerate solve (singular matrix, non-finite
// or non-positive output) falls back to the recent-history mean, and
// every forecast is clamped into a band around the observed history, so
// no ≤0 or ±Inf value can enter rolling error windows.
type Regression struct {
	cfg RegressionConfig

	// Normal equations, decayed. a holds the upper triangle of the
	// symmetric d×d matrix row-major: a[idx(i,j)] for i ≤ j.
	a [regDim * (regDim + 1) / 2]float64
	b [regDim]float64
	n uint64

	hist     []float64 // ring of the last K observations, raw bps
	histNext int
	histFull bool

	feat    FBInputs
	hasFeat bool

	// Solve scratch, reused so Predict allocates nothing.
	chol [regDim * regDim]float64
	w    [regDim]float64
}

// NewRegression returns an online least-squares predictor.
func NewRegression(cfg RegressionConfig) *Regression {
	cfg = cfg.defaults()
	return &Regression{cfg: cfg, hist: make([]float64, 0, cfg.lastK)}
}

// Name implements HB.
func (r *Regression) Name() string { return "regression" }

// SetFeatures supplies the conditioning measurements for the next
// Observe/Predict pair. Stale callers may simply never invoke it; the
// predictor then regresses on history features alone.
func (r *Regression) SetFeatures(in FBInputs) {
	r.feat = in
	r.hasFeat = true
}

// Observe implements HB.
func (r *Regression) Observe(x float64) {
	if !isFinitePositive(x) {
		return
	}
	var z [regDim]float64
	r.features(&z)
	y := x / 1e6
	beta := r.cfg.forget
	k := 0
	for i := 0; i < regDim; i++ {
		for j := i; j < regDim; j++ {
			r.a[k] = beta*r.a[k] + z[i]*z[j]
			k++
		}
		r.b[i] = beta*r.b[i] + z[i]*y
	}
	r.n++
	r.histPush(x)
}

// Predict implements HB.
func (r *Regression) Predict() (float64, bool) {
	if r.n == 0 {
		return 0, false
	}
	var z [regDim]float64
	r.features(&z)
	pred, ok := r.solveDot(&z)
	lo, hi := r.histBand()
	if !ok || !isFinitePositive(pred) {
		pred = r.histMean()
	}
	pred *= 1e6
	if pred < lo {
		pred = lo
	} else if pred > hi {
		pred = hi
	}
	return pred, true
}

// Reset implements HB.
func (r *Regression) Reset() {
	r.a = [regDim * (regDim + 1) / 2]float64{}
	r.b = [regDim]float64{}
	r.n = 0
	r.hist = r.hist[:0]
	r.histNext = 0
	r.histFull = false
	r.hasFeat = false
}

// features fills z with the current feature vector in Mbps.
func (r *Regression) features(z *[regDim]float64) {
	const featCap = 1e4 // 10 Gbps cap keeps rate features bounded
	z[0] = 1
	if n := len(r.hist); n > 0 {
		last := r.histNext - 1
		if last < 0 {
			last = n - 1
		}
		if !r.histFull {
			last = n - 1
		}
		z[1] = r.hist[last] / 1e6
		z[2] = r.histMean()
	}
	if r.hasFeat {
		z[3] = r.feat.AvailBw / 1e6
		if z[3] > featCap {
			z[3] = featCap
		}
		if r.feat.RTT > 0 {
			// Receiver-window limit for the FB default 1 MiB window.
			z[4] = float64(1<<20) * 8 / r.feat.RTT / 1e6
			if z[4] > featCap {
				z[4] = featCap
			}
			if r.feat.LossRate > 0 {
				// Mathis et al. square-root rate: MSS/(RTT·sqrt(2p/3)).
				z[5] = 1460 * 8 / (r.feat.RTT * math.Sqrt(2*r.feat.LossRate/3)) / 1e6
				if z[5] > featCap {
					z[5] = featCap
				}
			} else {
				z[5] = z[4]
			}
		}
	}
}

func (r *Regression) histPush(x float64) {
	if !r.histFull && len(r.hist) < cap(r.hist) {
		r.hist = append(r.hist, x)
		if len(r.hist) == cap(r.hist) {
			r.histFull = true
			r.histNext = 0
		}
		return
	}
	r.hist[r.histNext] = x
	r.histNext = (r.histNext + 1) % len(r.hist)
}

// histMean returns the mean of the history ring in Mbps (0 when empty).
// The sum runs in chronological order.
func (r *Regression) histMean() float64 {
	if len(r.hist) == 0 {
		return 0
	}
	var sum float64
	if r.histFull {
		for _, v := range r.hist[r.histNext:] {
			sum += v
		}
		for _, v := range r.hist[:r.histNext] {
			sum += v
		}
	} else {
		for _, v := range r.hist {
			sum += v
		}
	}
	return sum / float64(len(r.hist)) / 1e6
}

// histBand returns the clamp band [min/16, max·16] around the observed
// history in bps, or a wide default before any observation.
func (r *Regression) histBand() (lo, hi float64) {
	if len(r.hist) == 0 {
		return 1, 1e12
	}
	lo, hi = r.hist[0], r.hist[0]
	for _, v := range r.hist[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo / 16, hi * 16
}

// solveDot solves (A + λI)w = b by Cholesky factorization and returns
// w·z (in Mbps). ok is false when the factorization breaks down.
func (r *Regression) solveDot(z *[regDim]float64) (float64, bool) {
	// Expand the triangle into the scratch matrix with the ridge term;
	// scale λ with the matrix trace so regularization tracks the decayed
	// sample mass.
	var trace float64
	k := 0
	for i := 0; i < regDim; i++ {
		trace += r.a[k]
		k += regDim - i
	}
	lam := r.cfg.ridge * (1 + trace/regDim)
	k = 0
	for i := 0; i < regDim; i++ {
		for j := i; j < regDim; j++ {
			r.chol[i*regDim+j] = r.a[k]
			r.chol[j*regDim+i] = r.a[k]
			k++
		}
		r.chol[i*regDim+i] += lam
	}
	// In-place Cholesky: chol becomes the lower factor L.
	for i := 0; i < regDim; i++ {
		for j := 0; j <= i; j++ {
			sum := r.chol[i*regDim+j]
			for m := 0; m < j; m++ {
				sum -= r.chol[i*regDim+m] * r.chol[j*regDim+m]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return 0, false
				}
				r.chol[i*regDim+i] = math.Sqrt(sum)
			} else {
				r.chol[i*regDim+j] = sum / r.chol[j*regDim+j]
			}
		}
	}
	// Forward then backward substitution: L·Lᵀ·w = b.
	for i := 0; i < regDim; i++ {
		sum := r.b[i]
		for m := 0; m < i; m++ {
			sum -= r.chol[i*regDim+m] * r.w[m]
		}
		r.w[i] = sum / r.chol[i*regDim+i]
	}
	for i := regDim - 1; i >= 0; i-- {
		sum := r.w[i]
		for m := i + 1; m < regDim; m++ {
			sum -= r.chol[m*regDim+i] * r.w[m]
		}
		r.w[i] = sum / r.chol[i*regDim+i]
	}
	var dot float64
	for i := 0; i < regDim; i++ {
		dot += r.w[i] * z[i]
	}
	return dot, true
}
