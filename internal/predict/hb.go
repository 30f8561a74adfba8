package predict

import "strconv"

// HB is the interface of history-based one-step-ahead predictors. The usage
// protocol is: call Predict to obtain the forecast for the next
// measurement, then Observe the actual value, repeatedly. Predict before
// any observation returns (0, false).
//
// Implementations are NOT goroutine-safe: Predict, Observe and Reset must
// never be called concurrently on the same predictor. Concurrent callers
// (e.g. a prediction service handling many clients) must serialize access
// themselves; the predsvc.Session wrapper in internal/predsvc does exactly
// that and is the intended goroutine-safe entry point.
type HB interface {
	// Predict returns the forecast for the next value and whether enough
	// history exists to make one.
	Predict() (float64, bool)
	// Observe feeds the next actual measurement.
	Observe(x float64)
	// Reset discards all history.
	Reset()
	// Name identifies the predictor (e.g. "10-MA", "0.8-HW").
	Name() string
}

// MA is the n-order Moving Average predictor (paper §5.1.1): the forecast
// is the mean of the last n observations.
type MA struct {
	n    int
	buf  []float64
	head int
	full bool
	sum  float64
	name string
}

// NewMA returns an n-order moving average (n ≥ 1).
func NewMA(n int) *MA {
	if n < 1 {
		n = 1
	}
	return &MA{n: n, buf: make([]float64, 0, n), name: maName(n)}
}

func maName(n int) string {
	return strconv.Itoa(n) + "-MA"
}

// Predict implements HB.
func (m *MA) Predict() (float64, bool) {
	c := m.count()
	if c == 0 {
		return 0, false
	}
	return m.sum / float64(c), true
}

func (m *MA) count() int {
	if m.full {
		return m.n
	}
	return len(m.buf)
}

// Observe implements HB.
func (m *MA) Observe(x float64) {
	if !m.full && len(m.buf) < m.n {
		m.buf = append(m.buf, x)
		m.sum += x
		if len(m.buf) == m.n {
			m.full = true
			m.head = 0
		}
		return
	}
	m.sum += x - m.buf[m.head]
	m.buf[m.head] = x
	m.head = (m.head + 1) % m.n
}

// Reset implements HB.
func (m *MA) Reset() {
	m.buf = m.buf[:0]
	m.head = 0
	m.full = false
	m.sum = 0
}

// Name implements HB.
func (m *MA) Name() string { return m.name }

// EWMA is the exponentially weighted moving average predictor (paper
// §5.1.2): X̂_{i+1} = α·X_i + (1-α)·X̂_i.
type EWMA struct {
	alpha float64
	pred  float64
	seen  bool
	name  string
}

// NewEWMA returns an EWMA predictor with weight alpha in (0, 1).
func NewEWMA(alpha float64) *EWMA {
	return &EWMA{alpha: alpha, name: paramString(alpha) + "-EWMA"}
}

// Predict implements HB.
func (e *EWMA) Predict() (float64, bool) {
	if !e.seen {
		return 0, false
	}
	return e.pred, true
}

// Observe implements HB.
func (e *EWMA) Observe(x float64) {
	if !e.seen {
		e.pred = x
		e.seen = true
		return
	}
	e.pred = e.alpha*x + (1-e.alpha)*e.pred
}

// Reset implements HB.
func (e *EWMA) Reset() { e.seen = false; e.pred = 0 }

// Name implements HB.
func (e *EWMA) Name() string { return e.name }

// HoltWinters is the non-seasonal Holt-Winters predictor (paper §5.1.3),
// maintaining a smoothing component X̂ˢ and a trend component X̂ᵗ:
//
//	forecast  X̂ᶠ_i   = X̂ˢ_i + X̂ᵗ_i
//	smoothing X̂ˢ_{i+1} = α·X_i + (1-α)·X̂ᶠ_i
//	trend     X̂ᵗ_{i+1} = β·(X̂ˢ_{i+1} - X̂ˢ_i) + (1-β)·X̂ᵗ_i
//
// seeded with X̂ˢ_0 = X_0 and X̂ᵗ_0 = X_1 - X_0.
type HoltWinters struct {
	alpha, beta float64
	s, t        float64 // current smoothing and trend components
	x0          float64
	n           int // observations so far
	name        string
}

// NewHoltWinters returns a Holt-Winters predictor; the paper uses α = 0.8,
// β = 0.2.
func NewHoltWinters(alpha, beta float64) *HoltWinters {
	return &HoltWinters{alpha: alpha, beta: beta, name: paramString(alpha) + "-HW"}
}

// Predict implements HB.
func (h *HoltWinters) Predict() (float64, bool) {
	switch h.n {
	case 0:
		return 0, false
	case 1:
		// Only X_0 seen: no trend yet; forecast the level.
		return h.x0, true
	default:
		return h.s + h.t, true
	}
}

// Observe implements HB.
func (h *HoltWinters) Observe(x float64) {
	switch h.n {
	case 0:
		h.x0 = x
	case 1:
		// Seed: X̂ˢ_0 = X_0, X̂ᵗ_0 = X_1 - X_0, then absorb X_1.
		h.s = h.x0
		h.t = x - h.x0
		h.step(x)
	default:
		h.step(x)
	}
	h.n++
}

func (h *HoltWinters) step(x float64) {
	forecast := h.s + h.t
	sNext := h.alpha*x + (1-h.alpha)*forecast
	h.t = h.beta*(sNext-h.s) + (1-h.beta)*h.t
	h.s = sNext
}

// Reset implements HB.
func (h *HoltWinters) Reset() { h.s, h.t, h.x0, h.n = 0, 0, 0, 0 }

// Name implements HB.
func (h *HoltWinters) Name() string { return h.name }

// paramString renders a smoothing parameter for a predictor name using the
// shortest exact decimal representation ("0.8", "0.25").
func paramString(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
