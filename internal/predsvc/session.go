package predsvc

import (
	"math"
	"sync"

	"repro/internal/predict"
	"repro/internal/stats"
)

// Session is the goroutine-safe per-path predictor state: the full
// predictor zoo — the paper's HB ensemble, the FB predictor with its
// latest a-priori measurements, and (unless Config.DisableZoo) the
// stability switcher, feature regression and ECM families — each with a
// rolling error window. All methods may be called concurrently; a
// single mutex serializes access to the whole zoo, which is required
// because the predict.HB implementations themselves are not
// goroutine-safe.
//
// The accuracy bookkeeping follows the paper's protocol exactly: when a
// new throughput observation X arrives, each family's standing forecast
// X̂ (made before seeing X) is scored with the relative error
// E = (X̂-X)/min(X̂,X) (Eq. 4), and only then is X fed to the
// predictors. The same error windows double as the calibration data for
// the served P10/P50/P90 intervals (see predict.QuantilesForErrors) and
// as the regret bookkeeping of the online family tournament.
type Session struct {
	mu   sync.Mutex
	path string
	cfg  Config

	// families is the zoo in serving order: the three HB ensemble
	// members first (they also populate Prediction.HB), then the
	// switcher, FB, regression and ECM families.
	families []*family

	fb    *predict.FB
	fbIn  predict.FBInputs
	hasFB bool
	// fbSetAtObs is the observation count when the measurements were
	// installed; the gap to the current count is the measurement age that
	// drives staleness flagging (deterministic, unlike wall time).
	fbSetAtObs uint64

	reg *predict.Regression
	ecm *predict.ECM

	// Interval-coverage bookkeeping: covTotal counts observations that
	// arrived while a calibrated [P10,P90] interval was standing for the
	// selected family; covIn counts those that landed inside it.
	covIn, covTotal uint64

	observations uint64
	history      []float64 // recent raw observations, for snapshot/restore

	qscratch []float64 // sort scratch for quantile derivation
}

// familyKind distinguishes how a family forecasts and serializes.
type familyKind int

const (
	famHB familyKind = iota // paper HB ensemble member (also in Prediction.HB)
	famSwitcher
	famFB // formula-based; forecast depends on standing measurements
	famRegression
	famECM
)

// family is one tournament entrant: a named predictor plus its rolling
// Eq.-4 error window. hb is nil only for the FB family, whose forecast
// is a function of the standing measurements rather than of history.
type family struct {
	name string
	kind familyKind
	hb   predict.HB
	err  *errWindow
}

func newSession(path string, cfg Config) *Session {
	wrap := func(p predict.HB) predict.HB {
		if cfg.DisableLSO {
			return p
		}
		return predict.NewLSO(p, cfg.LSO)
	}
	s := &Session{
		path: path,
		cfg:  cfg,
		fb:   predict.NewFB(cfg.FB),
		reg:  predict.NewRegression(cfg.Regression),
		ecm:  predict.NewECM(cfg.ECM),
	}
	add := func(kind familyKind, hb predict.HB, name string) {
		if name == "" {
			name = hb.Name()
		}
		s.families = append(s.families, &family{
			name: name,
			kind: kind,
			hb:   hb,
			err:  newErrWindow(cfg.ErrorWindow),
		})
	}
	add(famHB, wrap(predict.NewMA(cfg.MAOrder)), "")
	add(famHB, wrap(predict.NewEWMA(cfg.EWMAAlpha)), "")
	add(famHB, wrap(predict.NewHoltWinters(cfg.HWAlpha, cfg.HWBeta)), "")
	if !cfg.DisableZoo {
		// Sun et al.'s pairing: a reactive tracker for stable regimes, a
		// robust smoother once the rolling CoV flags volatility.
		sw := predict.NewStabilitySwitcher(
			predict.NewEWMA(cfg.EWMAAlpha), predict.NewMA(cfg.MAOrder), cfg.Switcher)
		add(famSwitcher, sw, "")
	}
	add(famFB, nil, "FB")
	if !cfg.DisableZoo {
		add(famRegression, s.reg, "")
		add(famECM, s.ecm, "")
	}
	return s
}

// hbFamilies returns the three paper-ensemble families (always the
// first three, in MA/EWMA/HW order).
func (s *Session) hbFamilies() []*family { return s.families[:3] }

// fbFamily returns the FB tournament entry.
func (s *Session) fbFamily() *family {
	for _, f := range s.families {
		if f.kind == famFB {
			return f
		}
	}
	return nil
}

// Path returns the path name the session serves.
func (s *Session) Path() string { return s.path }

// Observations returns the lifetime observation count.
func (s *Session) Observations() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.observations
}

// coverage returns the interval-coverage counters.
func (s *Session) coverage() (in, total uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.covIn, s.covTotal
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
	if !ValidObservation(throughputBps) {
		return s.observations
	}
	s.observeLocked(throughputBps)
	return s.observations
}

func (s *Session) observeLocked(x float64) {
	// Interval calibration: score the standing [P10,P90] of the currently
	// selected family before anything mutates.
	if sel, fc := s.selectLocked(); sel != nil {
		if q, ok := s.quantilesLocked(sel, fc); ok {
			s.covTotal++
			if x >= q.P10 && x <= q.P90 {
				s.covIn++
			}
		}
	}
	for _, f := range s.families {
		if fc, ok := s.forecastLocked(f); ok && fc > 0 {
			f.err.push(s.clampErr(stats.RelativeError(fc, x)))
		}
	}
	for _, f := range s.families {
		if f.hb != nil {
			f.hb.Observe(x)
		}
	}
	s.observations++
	s.history = append(s.history, x)
	if len(s.history) >= 2*s.cfg.HistoryLimit {
		keep := s.history[len(s.history)-s.cfg.HistoryLimit:]
		s.history = append(s.history[:0], keep...)
	}
}

// forecastLocked returns a family's standing forecast.
func (s *Session) forecastLocked(f *family) (float64, bool) {
	if f.kind == famFB {
		if !s.hasFB {
			return 0, false
		}
		fc := s.fb.Predict(s.fbIn)
		return fc, fc > 0
	}
	return f.hb.Predict()
}

// fbStaleLocked reports whether the standing FB measurements are past
// the staleness horizon.
func (s *Session) fbStaleLocked() bool {
	return s.cfg.StaleAfter > 0 && s.observations-s.fbSetAtObs > uint64(s.cfg.StaleAfter)
}

// clampErr bounds a relative error before it enters a rolling window.
// RelativeError is ±Inf when a forecast is non-positive (Holt-Winters can
// forecast ≤ 0 on a falling series), and the windows are serialized
// verbatim into JSON snapshots, which cannot represent infinities. With
// ErrClamp > 0 (the default) this is exactly the clamp RMSRE would apply
// anyway; with clamping disabled, infinities become ±MaxFloat64, which
// still square to +Inf in the RMSRE as documented.
func (s *Session) clampErr(e float64) float64 {
	clamp := s.cfg.ErrClamp
	if clamp <= 0 {
		clamp = math.MaxFloat64
	}
	return math.Max(-clamp, math.Min(clamp, e))
}

// SetMeasurement installs fresh a-priori path measurements (T̂, p̂, Â) for
// the FB predictor — and as conditioning features for the regression and
// ECM families — and returns the FB forecast for them (0 when the inputs
// give no basis for prediction). Installing resets the measurement age
// that drives staleness flagging. Invalid inputs (see ValidMeasurement)
// are dropped and 0 is returned, leaving prior measurements in place.
func (s *Session) SetMeasurement(in predict.FBInputs) float64 {
	if !ValidMeasurement(in) {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setMeasurementLocked(in)
	s.fbSetAtObs = s.observations
	return s.fb.Predict(in)
}

func (s *Session) setMeasurementLocked(in predict.FBInputs) {
	s.fbIn = in
	s.hasFB = true
	s.reg.SetFeatures(in)
	s.ecm.SetConditions(in)
}

// PredictorState reports one ensemble member's standing forecast and
// rolling accuracy.
type PredictorState struct {
	Name        string  `json:"name"`
	Ready       bool    `json:"ready"`
	ForecastBps float64 `json:"forecast_bps"`
	RMSRE       float64 `json:"rmsre"`
	ErrorCount  int     `json:"error_count"`
}

// FBState reports the formula-based side: the latest installed
// measurements, the forecast they produce, its rolling accuracy, and how
// stale the measurements are. MeasurementAge counts observations absorbed
// since the measurements were installed; past Config.StaleAfter the
// forecast is flagged Stale and excluded from best-predictor selection —
// the service degrades to HB-only rather than serving forecasts computed
// from a bygone path state.
type FBState struct {
	RTTSeconds     float64 `json:"rtt_s"`
	LossRate       float64 `json:"loss_rate"`
	AvailBwBps     float64 `json:"avail_bw_bps"`
	ForecastBps    float64 `json:"forecast_bps"`
	RMSRE          float64 `json:"rmsre"`
	ErrorCount     int     `json:"error_count"`
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
	Stale       bool    `json:"stale,omitempty"`
}

// Prediction is the full answer for one path: the paper ensemble's
// forecasts and accuracy (HB/FB/Best, unchanged from the point-forecast
// API), plus the zoo tournament — every family's state with calibrated
// quantiles and regret, the online-selected family, and its P10/P50/P90
// interval at the top level.
type Prediction struct {
	Path            string           `json:"path"`
	Observations    uint64           `json:"observations"`
	Best            string           `json:"best,omitempty"`
	BestForecastBps float64          `json:"best_forecast_bps,omitempty"`
	HB              []PredictorState `json:"hb"`
	FB              *FBState         `json:"fb,omitempty"`

	// Family is the tournament winner: lowest rolling RMSRE among
	// qualified families (≥ MinErrors scored forecasts, ready, positive
	// forecast, FB never while stale); ties break toward zoo order.
	Family            string  `json:"family,omitempty"`
	FamilyForecastBps float64 `json:"family_forecast_bps,omitempty"`
	// P10/P50/P90 are the selected family's calibrated quantiles
	// (omitted until its error window holds enough scored forecasts).
	P10Bps   float64       `json:"p10_bps,omitempty"`
	P50Bps   float64       `json:"p50_bps,omitempty"`
	P90Bps   float64       `json:"p90_bps,omitempty"`
	Families []FamilyState `json:"families,omitempty"`
}

// Predict returns the current forecasts and accuracy for the path. It is
// deterministic: the response depends only on the sequence of Observe and
// SetMeasurement calls the session has absorbed.
func (s *Session) Predict() Prediction {
	var p Prediction
	s.PredictInto(&p, &FBState{})
	return p
}

// PredictInto is Predict for callers that recycle response memory (the
// wire fastpath keeps a pooled Prediction + FBState per request): the
// HB/Families slices are truncated and refilled in place, and fb — which
// must be non-nil — is overwritten and installed as p.FB when the
// session has standing measurements. Every field of *p is reassigned, so
// a recycled value never leaks state between paths.
func (s *Session) PredictInto(p *Prediction, fb *FBState) {
	s.mu.Lock()
	defer s.mu.Unlock()

	*p = Prediction{
		Path:         s.path,
		Observations: s.observations,
		HB:           p.HB[:0],
		Families:     p.Families[:0],
	}
	for _, f := range s.hbFamilies() {
		fc, ok := f.hb.Predict()
		st := PredictorState{Name: f.name, Ready: ok, ForecastBps: fc}
		st.RMSRE, _ = f.err.rmsre(s.cfg.ErrClamp)
		st.ErrorCount = f.err.count()
		p.HB = append(p.HB, st)
	}
	if s.hasFB {
		f := s.fb.Predict(s.fbIn)
		age := s.observations - s.fbSetAtObs
		*fb = FBState{
			RTTSeconds:     s.fbIn.RTT,
			LossRate:       s.fbIn.LossRate,
			AvailBwBps:     s.fbIn.AvailBw,
			ForecastBps:    f,
			ErrorCount:     s.fbFamily().err.count(),
			MeasurementAge: age,
			Stale:          s.fbStaleLocked(),
		}
		fb.RMSRE, _ = s.fbFamily().err.rmsre(s.cfg.ErrClamp)
		p.FB = fb
	}
	p.Best, p.BestForecastBps = s.bestLocked(p)

	// Tournament view: per-family states with quantiles and regret, then
	// the selected family's interval at the top level.
	minMean := math.Inf(1)
	for _, f := range s.families {
		if f.err.count() == 0 {
			continue
		}
		if m := f.err.meanAbs(); m < minMean {
			minMean = m
		}
	}
	for _, f := range s.families {
		fc, ok := s.forecastLocked(f)
		st := FamilyState{Name: f.name, Ready: ok, ForecastBps: fc}
		st.RMSRE, _ = f.err.rmsre(s.cfg.ErrClamp)
		st.ErrorCount = f.err.count()
		if st.ErrorCount > 0 {
			st.Regret = f.err.meanAbs() - minMean
		}
		if f.kind == famFB {
			st.Stale = s.fbStaleLocked()
		}
		if q, qok := s.quantilesLocked(f, fc); qok {
			st.P10Bps, st.P50Bps, st.P90Bps = q.P10, q.P50, q.P90
		}
		p.Families = append(p.Families, st)
	}
	if sel, fc := s.selectLocked(); sel != nil {
		p.Family, p.FamilyForecastBps = sel.name, fc
		if q, ok := s.quantilesLocked(sel, fc); ok {
			p.P10Bps, p.P50Bps, p.P90Bps = q.P10, q.P50, q.P90
		}
	}
}

// selectLocked runs the tournament: the qualified family (ready,
// positive forecast, ≥ MinErrors scored errors, FB never while stale)
// with the lowest rolling RMSRE, falling back to the first family with
// any positive forecast during warm-up.
func (s *Session) selectLocked() (*family, float64) {
	var best *family
	bestFc := 0.0
	bestR := math.Inf(1)
	for _, f := range s.families {
		if f.kind == famFB && s.fbStaleLocked() {
			continue
		}
		fc, ok := s.forecastLocked(f)
		if !ok || fc <= 0 || f.err.count() < s.cfg.MinErrors {
			continue
		}
		if r, rok := f.err.rmsre(s.cfg.ErrClamp); rok && r < bestR {
			best, bestFc, bestR = f, fc, r
		}
	}
	if best != nil {
		return best, bestFc
	}
	for _, f := range s.families {
		if f.kind == famFB && s.fbStaleLocked() {
			continue
		}
		if fc, ok := s.forecastLocked(f); ok && fc > 0 {
			return f, fc
		}
	}
	return nil, 0
}

// quantilesLocked derives a family's calibrated P10/P50/P90 for its
// standing forecast: ECM natively from its conditional histograms, every
// other family by inverting the empirical quantiles of its rolling Eq.-4
// errors. ok is false until MinErrors errors are scored.
func (s *Session) quantilesLocked(f *family, forecast float64) (predict.Quantiles, bool) {
	if f.kind == famECM {
		return s.ecm.PredictQuantiles()
	}
	if f.err.count() < s.cfg.MinErrors {
		return predict.Quantiles{}, false
	}
	var q predict.Quantiles
	var ok bool
	q, ok, s.qscratch = predict.QuantilesForErrors(forecast, f.err.buf, s.qscratch)
	return q, ok
}

// bestLocked picks the best predictor from an assembled Prediction:
// lowest rolling RMSRE among qualified candidates, falling back to the
// first ready HB member and then to the FB forecast. It predates the
// zoo tournament and covers only the paper ensemble (HB trio + FB), so
// the original point-forecast API keeps its exact semantics.
func (s *Session) bestLocked(p *Prediction) (string, float64) {
	bestName, bestForecast := "", 0.0
	bestRMSRE := math.Inf(1)
	consider := func(name string, forecast, rmsre float64, n int, ready bool) {
		if !ready || n < s.cfg.MinErrors || forecast <= 0 {
			return
		}
		if rmsre < bestRMSRE {
			bestName, bestForecast, bestRMSRE = name, forecast, rmsre
		}
	}
	for _, st := range p.HB {
		consider(st.Name, st.ForecastBps, st.RMSRE, st.ErrorCount, st.Ready)
	}
	// A stale FB forecast never competes: its measurements describe a
	// path state the service no longer believes in.
	if p.FB != nil && !p.FB.Stale {
		consider("FB", p.FB.ForecastBps, p.FB.RMSRE, p.FB.ErrorCount, p.FB.ForecastBps > 0)
	}
	if bestName != "" {
		return bestName, bestForecast
	}
	// Warm-up fallbacks: any ready HB forecast, then the FB forecast.
	for _, st := range p.HB {
		if st.Ready && st.ForecastBps > 0 {
			return st.Name, st.ForecastBps
		}
	}
	if p.FB != nil && !p.FB.Stale && p.FB.ForecastBps > 0 {
		return "FB", p.FB.ForecastBps
	}
	return "", 0
}

// snapshot captures the replayable state of the session.
func (s *Session) snapshot() PathSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	hist := s.history
	if len(hist) > s.cfg.HistoryLimit {
		hist = hist[len(hist)-s.cfg.HistoryLimit:]
	}
	ps := PathSnapshot{
		Path:         s.path,
		Observations: s.observations,
		History:      append([]float64(nil), hist...),
		CovIn:        s.covIn,
		CovTotal:     s.covTotal,
	}
	for _, f := range s.families {
		fs := FamilySnapshot{Name: f.name, Errors: f.err.chronological()}
		switch f.kind {
		case famRegression:
			st := s.reg.State()
			fs.Regression = &st
		case famECM:
			st := s.ecm.State()
			fs.ECM = &st
		}
		ps.Families = append(ps.Families, fs)
	}
	if s.hasFB {
		ps.FBInputs = &FBInputsSnapshot{
			RTTSeconds: s.fbIn.RTT,
			LossRate:   s.fbIn.LossRate,
			AvailBwBps: s.fbIn.AvailBw,
		}
		ps.FBAge = s.observations - s.fbSetAtObs
	}
	return ps
}

// restore replays a snapshot into the session. Predictors with bounded
// memory (MA, windowed LSO, the switcher) restore exactly when the
// snapshot history covers their window; EWMA/HW restore approximately
// (their infinite tail beyond HistoryLimit observations is dropped),
// which the snapshot format documents as acceptable for a cache-like
// registry. Regression and ECM state is replaced verbatim from the
// snapshot.
func (s *Session) restore(ps PathSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Replay trains every history-driven predictor; conditioning features
	// are not retained per epoch, so regression/ECM see none during
	// replay (their state overwrite below makes that moot).
	for _, x := range ps.History {
		s.observeLocked(x)
	}
	// Reinstall each family's error window — accuracy the replay cannot
	// reconstruct (observations older than the history, FB scores against
	// bygone measurements) — and model state.
	byName := make(map[string]FamilySnapshot, len(ps.Families))
	for _, fs := range ps.Families {
		byName[fs.Name] = fs
	}
	for _, f := range s.families {
		fs, ok := byName[f.name]
		if !ok {
			continue
		}
		f.err = windowFromErrors(fs.Errors, s.cfg.ErrorWindow)
		switch {
		case f.kind == famRegression && fs.Regression != nil:
			s.reg.SetState(*fs.Regression)
		case f.kind == famECM && fs.ECM != nil:
			s.ecm.SetState(*fs.ECM)
		}
	}
	// Replace the replay-accumulated coverage counters with the real ones.
	s.covIn, s.covTotal = ps.CovIn, ps.CovTotal
	if ps.Observations > s.observations {
		s.observations = ps.Observations
	}
	if ps.FBInputs != nil {
		s.setMeasurementLocked(predict.FBInputs{
			RTT:      ps.FBInputs.RTTSeconds,
			LossRate: ps.FBInputs.LossRate,
			AvailBw:  ps.FBInputs.AvailBwBps,
		})
		// Carry the measurement age across the restart so a forecast that
		// was stale before the crash stays stale after it.
		age := ps.FBAge
		if age > s.observations {
			age = s.observations
		}
		s.fbSetAtObs = s.observations - age
	}
}

// errWindow is a fixed-size ring of the most recent relative errors.
type errWindow struct {
	buf  []float64
	next int
	full bool
}

func newErrWindow(n int) *errWindow {
	return &errWindow{buf: make([]float64, 0, n)}
}

// windowFromErrors rebuilds a window from serialized errors, keeping the
// most recent cap entries.
func windowFromErrors(errs []float64, capacity int) *errWindow {
	w := newErrWindow(capacity)
	if len(errs) > capacity {
		errs = errs[len(errs)-capacity:]
	}
	for _, e := range errs {
		w.push(e)
	}
	return w
}

func (w *errWindow) push(e float64) {
	if !w.full && len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, e)
		if len(w.buf) == cap(w.buf) {
			w.full = true
		}
		return
	}
	w.buf[w.next] = e
	w.next = (w.next + 1) % len(w.buf)
}

func (w *errWindow) count() int { return len(w.buf) }

// chronological returns the retained errors oldest first (the ring is
// unrolled), so a restored window keeps evicting in the original order.
func (w *errWindow) chronological() []float64 {
	out := make([]float64, 0, len(w.buf))
	if w.full {
		out = append(out, w.buf[w.next:]...)
		return append(out, w.buf[:w.next]...)
	}
	return append(out, w.buf...)
}

// forEachChrono visits the retained errors oldest first. Aggregations
// must accumulate in this order, not ring-storage order: float addition
// is not associative, and a snapshot-restored window is compacted while
// a live one is rotated — identical contents must yield bit-identical
// statistics either way, or a spill/fault cycle would change predict
// responses.
func (w *errWindow) forEachChrono(fn func(float64)) {
	if w.full {
		for _, e := range w.buf[w.next:] {
			fn(e)
		}
		for _, e := range w.buf[:w.next] {
			fn(e)
		}
		return
	}
	for _, e := range w.buf {
		fn(e)
	}
}

// rmsre returns the rolling RMSRE (paper Eq. 5) with |E| clamped at clamp;
// ok is false when no errors have been recorded yet.
func (w *errWindow) rmsre(clamp float64) (float64, bool) {
	if len(w.buf) == 0 {
		return 0, false
	}
	var sum float64
	w.forEachChrono(func(e float64) {
		if clamp > 0 {
			if e > clamp {
				e = clamp
			} else if e < -clamp {
				e = -clamp
			}
		}
		sum += e * e
	})
	return math.Sqrt(sum / float64(len(w.buf))), true
}

// meanAbs returns the mean |E| over the window (0 when empty) — the
// regret bookkeeping's per-family loss.
func (w *errWindow) meanAbs() float64 {
	if len(w.buf) == 0 {
		return 0
	}
	var sum float64
	w.forEachChrono(func(e float64) { sum += math.Abs(e) })
	return sum / float64(len(w.buf))
}
