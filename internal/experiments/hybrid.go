package experiments

import (
	"math"

	"repro/internal/predict"
)

// hybrid implements the paper's first future-work direction (§7):
// "examine hybrid predictors, which rely on TCP models as well as on
// recent history."
//
// The hybrid treats the FB formula as a structural prior and learns its
// multiplicative bias on the given path from history: each time a transfer
// completes, it observes the ratio R/R̂_FB between the achieved throughput
// and the formula's prediction, smooths the log-ratio with an EWMA, and
// scales future FB predictions by the learned correction. With no history
// it reduces to pure FB; with history it converges toward HB accuracy
// while retaining FB's ability to react instantly to measured path-state
// changes (a loss-rate jump moves the prediction immediately, which no
// pure history method can do).
type hybrid struct {
	fb    *predict.FB
	alpha float64

	logBias float64
	n       int

	lastInputs predict.FBInputs
	havePred   bool
}

// newHybrid builds a hybrid predictor around an FB configuration. alpha is
// the EWMA weight for the bias correction; the paper's HB results suggest
// weighting recent samples heavily (0.5 works well in our experiments).
func newHybrid(cfg predict.FBConfig, alpha float64) *hybrid {
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.5
	}
	return &hybrid{fb: predict.NewFB(cfg), alpha: alpha}
}

// Predict returns the bias-corrected FB prediction for the given pre-flow
// measurements.
func (h *hybrid) Predict(in predict.FBInputs) float64 {
	h.lastInputs = in
	h.havePred = true
	raw := h.fb.Predict(in)
	if h.n == 0 {
		return raw
	}
	return raw * math.Exp(h.logBias)
}

// Observe feeds the achieved throughput of the transfer whose inputs were
// last passed to Predict, updating the bias estimate.
func (h *hybrid) Observe(actualBps float64) {
	if !h.havePred || actualBps <= 0 {
		return
	}
	raw := h.fb.Predict(h.lastInputs)
	if raw <= 0 {
		return
	}
	sample := clampedLog(actualBps / raw)
	if h.n == 0 {
		h.logBias = sample
	} else {
		h.logBias = h.alpha*sample + (1-h.alpha)*h.logBias
	}
	h.n++
}

// clampedLog is ln x clamped to [-3, 3], keeping the bias in a sane band:
// the correction should fix model bias, not substitute for the model
// entirely.
func clampedLog(x float64) float64 {
	l := math.Log(x)
	if l > 3 {
		l = 3
	}
	if l < -3 {
		l = -3
	}
	return l
}
