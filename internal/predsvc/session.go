package predsvc

import (
	"math"
	"sync"

	"repro/internal/predict"
)

// Session is one path's predictor state behind a mutex: the path name and
// the predict.Ensemble that runs the zoo — scoring (Eq. 4), selection,
// quantiles, regret and coverage all live there. The ensemble is not
// goroutine-safe; every Session method takes the lock, so a Session may be
// used concurrently.
type Session struct {
	mu   sync.Mutex
	path string
	ens  *predict.Ensemble
}

func newSession(path string) *Session {
	return &Session{path: path, ens: predict.NewEnsemble()}
}

// withEnsemble runs fn on the session's ensemble under the session lock.
func (s *Session) withEnsemble(fn func(*predict.Ensemble)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.ens)
}

// Path returns the path name the session serves.
func (s *Session) Path() string { return s.path }

// Observations returns the lifetime observation count.
func (s *Session) Observations() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ens.Observations()
}

// ValidObservation reports whether x is a usable throughput sample: finite
// and strictly positive. NaN, ±Inf and non-positive values would poison
// predictor state, error windows and snapshots if absorbed.
func ValidObservation(x float64) bool {
	return x > 0 && !math.IsNaN(x) && !math.IsInf(x, 0)
}

// ValidMeasurement reports whether in is a usable a-priori measurement
// set: finite non-negative RTT and available bandwidth, loss rate in
// [0, 1]. (NaN fails every comparison, so it is rejected by these bounds.)
func ValidMeasurement(in predict.FBInputs) bool {
	finiteNonNeg := func(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }
	return finiteNonNeg(in.RTT) && finiteNonNeg(in.AvailBw) &&
		in.LossRate >= 0 && in.LossRate <= 1
}

// Observe feeds the throughput (bits/s) achieved by the latest transfer on
// the path: every family's standing forecast is scored against it, then
// the predictors absorb it. It returns the new observation count.
// Invalid samples (see ValidObservation) are dropped: the count is
// returned unchanged. The HTTP layer rejects them with a 400 before this
// point; the check here protects direct API users.
func (s *Session) Observe(throughputBps float64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ValidObservation(throughputBps) {
		s.ens.Observe(throughputBps)
	}
	return s.ens.Observations()
}

// SetMeasurement installs fresh a-priori path measurements (T̂, p̂, Â) for
// the FB predictor and returns the FB forecast for them (0 when the inputs
// give no basis for prediction). Installing resets the measurement age
// that drives staleness flagging. Invalid inputs (see ValidMeasurement)
// are dropped and 0 is returned, leaving prior measurements in place.
func (s *Session) SetMeasurement(in predict.FBInputs) float64 {
	if !ValidMeasurement(in) {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ens.SetMeasurement(in)
}

// FBState reports the formula-based side's inputs: the latest installed
// measurements and how stale they are. MeasurementAge counts observations
// absorbed since the measurements were installed; past the zoo's fixed
// threshold of 30 the FB forecast is flagged Stale and excluded from
// best-predictor selection — the service degrades to HB-only rather than
// serving forecasts computed from a bygone path state. FB's forecast and
// accuracy are its entry in Prediction.Families.
type FBState struct {
	RTTSeconds     float64 `json:"rtt_s"`
	LossRate       float64 `json:"loss_rate"`
	AvailBwBps     float64 `json:"avail_bw_bps"`
	MeasurementAge uint64  `json:"measurement_age"`
	Stale          bool    `json:"stale,omitempty"`
}

// FamilyState reports one tournament entrant: its standing forecast,
// calibrated quantiles (when enough errors are scored), rolling
// accuracy, and regret — the gap between this family's mean |E| and the
// best family's over the same rolling window (0 for the current
// best-in-hindsight family).
type FamilyState struct {
	Name        string  `json:"name"`
	Ready       bool    `json:"ready"`
	ForecastBps float64 `json:"forecast_bps"`
	P10Bps      float64 `json:"p10_bps,omitempty"`
	P50Bps      float64 `json:"p50_bps,omitempty"`
	P90Bps      float64 `json:"p90_bps,omitempty"`
	RMSRE       float64 `json:"rmsre"`
	ErrorCount  int     `json:"error_count"`
	Regret      float64 `json:"regret"`
}

// Prediction is the full answer for one path: the online-selected family
// with its forecast and P10/P50/P90 interval at the top level, the FB
// measurements, and the tournament — every family's forecast, calibrated
// quantiles, rolling accuracy and regret, in zoo order (10-MA-LSO,
// 0.8-EWMA-LSO, 0.8-HW-LSO, FB). Best and Family name the same selection;
// Best is kept for clients that read the older field.
type Prediction struct {
	Path            string   `json:"path"`
	Observations    uint64   `json:"observations"`
	Best            string   `json:"best,omitempty"`
	BestForecastBps float64  `json:"best_forecast_bps,omitempty"`
	FB              *FBState `json:"fb,omitempty"`

	// Family is the tournament winner: lowest rolling RMSRE among
	// qualified families (≥ 3 scored forecasts, ready, positive forecast,
	// FB never while stale); ties break toward zoo order.
	Family string `json:"family,omitempty"`
	// P10/P50/P90 are the selected family's calibrated quantiles
	// (omitted until its error window holds enough scored forecasts).
	P10Bps   float64       `json:"p10_bps,omitempty"`
	P50Bps   float64       `json:"p50_bps,omitempty"`
	P90Bps   float64       `json:"p90_bps,omitempty"`
	Families []FamilyState `json:"families,omitempty"`
}

// PredictInto fills p with the current forecasts and accuracy for the
// path. It is deterministic: the response depends only on the sequence of
// Observe and SetMeasurement calls the session has absorbed. It recycles
// response memory (the wire fastpath keeps a pooled Prediction + FBState
// per request): the Families slice is truncated and refilled in place,
// and fb — which must be non-nil — is overwritten and installed as p.FB
// when the session has standing measurements. Every field of *p is
// reassigned, so a recycled value never leaks state between paths.
func (s *Session) PredictInto(p *Prediction, fb *FBState) {
	s.mu.Lock()
	defer s.mu.Unlock()

	v := s.ens.View()
	*p = Prediction{
		Path:         s.path,
		Observations: s.ens.Observations(),
		Families:     p.Families[:0],
	}
	if in, age, ok := s.ens.Measurement(); ok {
		*fb = FBState{
			RTTSeconds:     in.RTT,
			LossRate:       in.LossRate,
			AvailBwBps:     in.AvailBw,
			MeasurementAge: age,
			Stale:          v.Families[v.FB].Stale,
		}
		p.FB = fb
	}
	for i := range v.Families {
		f := &v.Families[i]
		st := FamilyState{
			Name: f.Name, Ready: f.Ready, ForecastBps: f.Forecast,
			RMSRE: f.RMSRE, ErrorCount: f.Errors, Regret: f.Regret,
		}
		if f.Calibrated {
			st.P10Bps, st.P50Bps, st.P90Bps = f.Quantiles.P10, f.Quantiles.P50, f.Quantiles.P90
		}
		p.Families = append(p.Families, st)
	}
	if v.Selected >= 0 {
		f := &v.Families[v.Selected]
		p.Family, p.Best, p.BestForecastBps = f.Name, f.Name, f.Forecast
		if f.Calibrated {
			p.P10Bps, p.P50Bps, p.P90Bps = f.Quantiles.P10, f.Quantiles.P50, f.Quantiles.P90
		}
	}
}

// state captures the session's tournament into st.
func (s *Session) state(st *predict.EnsembleState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ens.State(st)
}

// install replaces the session's tournament with a restored one.
func (s *Session) install(ens *predict.Ensemble) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ens = ens
}
