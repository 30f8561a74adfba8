package predict

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
)

// EnsembleConfig selects the zoo's model parameters. The zero value is
// the paper's configuration throughout.
type EnsembleConfig struct {
	// ErrorWindow is the number of most recent relative errors (Eq. 4)
	// each family keeps for its rolling RMSRE and quantiles (default 50).
	ErrorWindow int
	// MAOrder is the moving-average order (default 10, the paper's sweet
	// spot for stationary paths).
	MAOrder int
	// EWMAAlpha is the EWMA weight (default 0.8).
	EWMAAlpha float64
	// HWAlpha, HWBeta are the Holt-Winters weights (default 0.8 / 0.2,
	// the paper's choice).
	HWAlpha, HWBeta float64
	// DisableLSO turns off the level-shift/outlier wrapper; by default
	// the three HB members are LSO-wrapped (the paper's best configs).
	DisableLSO bool
	// LSO overrides the LSO thresholds (zero value: paper defaults).
	LSO LSOConfig
	// FB configures the formula-based predictor (zero value: PFTK,
	// 1460 B MSS, 1 MB window, delayed ACKs — the paper's target flow).
	FB FBConfig
	// Regression, ECM and Switcher tune the extension families (zero
	// values: their package defaults).
	Regression RegressionConfig
	ECM        ECMConfig
	Switcher   SwitcherConfig
	// StaleAfter is how many observations may follow a measurement before
	// the FB forecast is flagged stale and excluded from selection
	// (default 30; negative disables staleness). It is counted in
	// observations, not wall time, so the ensemble stays a deterministic
	// function of its inputs.
	StaleAfter int
}

func (c EnsembleConfig) defaults() EnsembleConfig {
	if c.ErrorWindow <= 0 {
		c.ErrorWindow = 50
	}
	if c.MAOrder <= 0 {
		c.MAOrder = 10
	}
	if c.EWMAAlpha == 0 {
		c.EWMAAlpha = 0.8
	}
	if c.HWAlpha == 0 {
		c.HWAlpha = 0.8
	}
	if c.HWBeta == 0 {
		c.HWBeta = 0.2
	}
	if c.StaleAfter == 0 {
		c.StaleAfter = 30
	}
	return c
}

// Ensemble runs the predictor zoo for one path as an online tournament.
// It is the one place the zoo exists: the prediction service keeps one per
// path behind a lock, and the offline experiments drive one per trace.
//
// The families, in order: the paper's HB trio (MA, EWMA and Holt-Winters,
// LSO-wrapped), the stability switcher of Sun et al., FB, the feature
// regression and Zheng's ECM. Each keeps a ResidualWindow of its Eq.-4
// errors. The paper's protocol is followed exactly: when an observation X
// arrives, each family's standing forecast X̂ is scored with
// E = (X̂-X)/min(X̂,X) before X reaches any predictor. The same windows
// calibrate the quantiles (ECM forecasts its own) and carry the regret
// bookkeeping.
//
// An Ensemble is not goroutine-safe.
type Ensemble struct {
	families   []family
	fbIdx      int
	staleAfter int

	fb  *FB
	reg *Regression
	ecm *ECM

	fbIn  FBInputs
	hasFB bool
	// fbSetAtObs is the observation count when the measurements were
	// installed; the gap to the current count is the measurement age.
	fbSetAtObs uint64

	observations uint64
	// covTotal counts observations that arrived while the tournament
	// winner had a calibrated [P10,P90] interval standing; covIn counts
	// those that landed inside it.
	covIn, covTotal uint64

	views []FamilyView // View's backing store, reused across calls
}

// family is one tournament entrant. hb is nil only for FB, whose forecast
// is a function of the standing measurements rather than of history; qp
// is set for the family that forecasts quantiles natively (ECM).
type family struct {
	hb    HB
	qp    QuantilePredictor
	paper bool // one of the paper's predictors: MA, EWMA, HW or FB
	win   ResidualWindow
}

// NewEnsemble builds the zoo; see EnsembleConfig for the defaults.
func NewEnsemble(cfg EnsembleConfig) *Ensemble {
	cfg = cfg.defaults()
	wrap := func(p HB) HB {
		if cfg.DisableLSO {
			return p
		}
		return NewLSO(p, cfg.LSO)
	}
	e := &Ensemble{
		staleAfter: cfg.StaleAfter,
		fb:         NewFB(cfg.FB),
		reg:        NewRegression(cfg.Regression),
		ecm:        NewECM(cfg.ECM),
	}
	members := []HB{
		wrap(NewMA(cfg.MAOrder)),
		wrap(NewEWMA(cfg.EWMAAlpha)),
		wrap(NewHoltWinters(cfg.HWAlpha, cfg.HWBeta)),
		// Sun et al.'s pairing: a reactive tracker for stable regimes, a
		// robust smoother once the rolling CoV flags volatility.
		NewStabilitySwitcher(NewEWMA(cfg.EWMAAlpha), NewMA(cfg.MAOrder), cfg.Switcher),
		nil, // FB
		e.reg,
		e.ecm,
	}
	e.families = make([]family, len(members))
	e.views = make([]FamilyView, len(members))
	for i, hb := range members {
		f := &e.families[i]
		f.hb, f.paper = hb, i < 3
		f.win = newResidualWindow(cfg.ErrorWindow)
		if hb == nil {
			e.fbIdx, f.paper = i, true
			e.views[i].Name = "FB"
			continue
		}
		f.qp, _ = hb.(QuantilePredictor)
		e.views[i].Name = hb.Name()
	}
	return e
}

// Names returns the family names in zoo order.
func (e *Ensemble) Names() []string {
	names := make([]string, len(e.views))
	for i := range e.views {
		names[i] = e.views[i].Name
	}
	return names
}

// Observations returns how many observations the ensemble has absorbed.
func (e *Ensemble) Observations() uint64 { return e.observations }

// Coverage returns the interval-coverage counters: of the total
// observations that met a calibrated [P10,P90] of the then-winning family,
// in fell inside it.
func (e *Ensemble) Coverage() (in, total uint64) { return e.covIn, e.covTotal }

// Measurement returns the standing FB inputs and their age in
// observations; ok is false until SetMeasurement is first called.
func (e *Ensemble) Measurement() (in FBInputs, age uint64, ok bool) {
	return e.fbIn, e.observations - e.fbSetAtObs, e.hasFB
}

// SetMeasurement installs a-priori path measurements (T̂, p̂, Â): the FB
// inputs, and the conditioning features of the regression and ECM
// families. It restarts the measurement age and returns the FB forecast
// for the inputs (0 when they give no basis for prediction).
func (e *Ensemble) SetMeasurement(in FBInputs) float64 {
	e.setMeasurement(in)
	e.fbSetAtObs = e.observations
	return e.fb.Predict(in)
}

func (e *Ensemble) setMeasurement(in FBInputs) {
	e.fbIn, e.hasFB = in, true
	e.reg.SetFeatures(in)
	e.ecm.SetConditions(in)
}

// Observe absorbs the throughput x of the path's latest transfer. The
// tournament winner's standing [P10,P90] is scored for coverage, then
// every family's standing forecast is scored against x (Eq. 4), and only
// then do the predictors see x.
func (e *Ensemble) Observe(x float64) {
	e.fill(false)
	if w := e.pick(false); w >= 0 {
		if q, ok := e.quantiles(w); ok {
			e.covTotal++
			if x >= q.P10 && x <= q.P90 {
				e.covIn++
			}
		}
	}
	for i := range e.families {
		f := &e.families[i]
		if v := &e.views[i]; v.Ready && v.Forecast > 0 {
			f.win.Score(v.Forecast, x)
		}
		if f.hb != nil {
			f.hb.Observe(x)
		}
	}
	e.observations++
}

// FamilyView is one family's standing state.
type FamilyView struct {
	Name     string
	Ready    bool    // the predictor has a standing forecast
	Forecast float64 // the standing forecast
	Errors   int     // scored forecasts in the error window
	RMSRE    float64 // rolling Eq. 5 over the window (0 while it is empty)
	// Regret is this family's mean |E| minus the lowest mean |E| of any
	// family, over their windows (0 while the window is empty).
	Regret float64
	Stale  bool // FB only: the measurements are older than StaleAfter
	// Quantiles is the calibrated P10/P50/P90 of the forecast, valid when
	// Calibrated: residual quantiles of the error window, or ECM's own.
	Quantiles  Quantiles
	Calibrated bool

	meanAbs float64
}

// View is one reading of the tournament.
type View struct {
	// Families holds every family in zoo order; the first three are the
	// paper's HB trio. It is storage the ensemble reuses, valid until the
	// next call on the ensemble.
	Families []FamilyView
	// Selected indexes the tournament winner: the family with the lowest
	// rolling RMSRE among those with a positive forecast and at least
	// three scored errors (FB never while stale), ties going to zoo order.
	// During warm-up it is the first family with a positive forecast.
	// -1 when no family has one.
	Selected int
	// Best indexes the same selection restricted to the paper's
	// predictors (MA, EWMA, HW and FB), or is -1.
	Best int
	// FB indexes the FB family.
	FB int
}

// View evaluates every family once — forecast, rolling RMSRE, regret and
// quantiles — and runs both selections over the result.
func (e *Ensemble) View() View {
	e.fill(true)
	return View{Families: e.views, Selected: e.pick(false), Best: e.pick(true), FB: e.fbIdx}
}

// FamilyRMSRE returns family i's rolling RMSRE; ok is false while its
// error window is empty.
func (e *Ensemble) FamilyRMSRE(i int) (float64, bool) {
	if i >= len(e.families) || e.families[i].win.Count() == 0 {
		return 0, false
	}
	rmsre, _ := e.families[i].win.summary()
	return rmsre, true
}

// FamilyRegret returns family i's rolling regret (see FamilyView); ok is
// false while its error window is empty.
func (e *Ensemble) FamilyRegret(i int) (float64, bool) {
	if i >= len(e.families) {
		return 0, false
	}
	e.summarize()
	return e.views[i].Regret, e.views[i].Errors > 0
}

// LSOStats sums level-shift and outlier detections over the LSO-wrapped
// families (zero with DisableLSO).
func (e *Ensemble) LSOStats() (shifts, outliers int) {
	for i := range e.families {
		if l, ok := e.families[i].hb.(*LSO); ok {
			shifts += l.Shifts
			outliers += l.Outliers
		}
	}
	return shifts, outliers
}

// summarize fills each view's error statistics from its window: count,
// RMSRE, mean |E| and regret.
func (e *Ensemble) summarize() {
	floor := math.Inf(1)
	for i := range e.families {
		v := &e.views[i]
		v.Errors, v.RMSRE, v.meanAbs, v.Regret = e.families[i].win.Count(), 0, 0, 0
		if v.Errors > 0 {
			v.RMSRE, v.meanAbs = e.families[i].win.summary()
			if v.meanAbs < floor {
				floor = v.meanAbs
			}
		}
	}
	for i := range e.views {
		if v := &e.views[i]; v.Errors > 0 {
			v.Regret = v.meanAbs - floor
		}
	}
}

// fill refreshes every view: error statistics, standing forecast,
// staleness and, when asked, quantiles.
func (e *Ensemble) fill(quantiles bool) {
	e.summarize()
	stale := e.staleAfter > 0 && e.observations-e.fbSetAtObs > uint64(e.staleAfter)
	for i := range e.families {
		v := &e.views[i]
		v.Forecast, v.Ready = e.forecast(i)
		v.Stale = i == e.fbIdx && stale
		v.Quantiles, v.Calibrated = Quantiles{}, false
		if quantiles {
			v.Quantiles, v.Calibrated = e.quantiles(i)
		}
	}
}

// forecast returns family i's standing forecast.
func (e *Ensemble) forecast(i int) (float64, bool) {
	if hb := e.families[i].hb; hb != nil {
		return hb.Predict()
	}
	if !e.hasFB {
		return 0, false
	}
	fc := e.fb.Predict(e.fbIn)
	return fc, fc > 0
}

// quantiles derives family i's calibrated P10/P50/P90 for its filled
// forecast: natively for ECM, by inverting the empirical quantiles of the
// error window for every other family.
func (e *Ensemble) quantiles(i int) (Quantiles, bool) {
	f := &e.families[i]
	if f.qp != nil {
		return f.qp.PredictQuantiles()
	}
	return f.win.QuantilesFor(e.views[i].Forecast)
}

// pick runs the selection documented on View over the filled views;
// paper restricts it to the paper's predictors. The warm-up stand-in is
// the first family eligible at all.
func (e *Ensemble) pick(paper bool) int {
	best, first, bestRMSRE := -1, -1, math.Inf(1)
	for i := range e.views {
		v := &e.views[i]
		if paper && !e.families[i].paper || v.Stale || !v.Ready || v.Forecast <= 0 {
			continue
		}
		if first < 0 {
			first = i
		}
		if v.Errors >= residualMinSamples && v.RMSRE < bestRMSRE {
			best, bestRMSRE = i, v.RMSRE
		}
	}
	if best < 0 {
		return first
	}
	return best
}

// FamilySnapshot is one family's serialized state: its error window,
// oldest first, and its predictor's live state (none for FB, whose
// forecast is a function of the standing measurements).
type FamilySnapshot struct {
	Name   string    `json:"name"`
	Errors []float64 `json:"errors,omitempty"`
	PredictorState
}

// EnsembleState is the whole tournament of one path: the lifetime
// observation count, the standing measurements (nil until one is
// installed) and how many observations ago they were, every family's error
// window and predictor state, and the coverage counters. Its binary form
// (AppendBinary) is what the prediction service persists per path.
type EnsembleState struct {
	Observations uint64           `json:"observations"`
	FB           *FBInputs        `json:"fb_inputs,omitempty"`
	FBAge        uint64           `json:"fb_age,omitempty"`
	Families     []FamilySnapshot `json:"families,omitempty"`
	CovIn        uint64           `json:"cov_in,omitempty"`
	CovTotal     uint64           `json:"cov_total,omitempty"`
}

// State captures the ensemble. SetState on a fresh ensemble of the same
// configuration reproduces it exactly, at any history length.
func (e *Ensemble) State() EnsembleState {
	st := EnsembleState{Observations: e.observations, CovIn: e.covIn, CovTotal: e.covTotal}
	if e.hasFB {
		in := e.fbIn
		st.FB, st.FBAge = &in, e.observations-e.fbSetAtObs
	}
	st.Families = make([]FamilySnapshot, len(e.families))
	for i := range e.families {
		f := &e.families[i]
		st.Families[i] = FamilySnapshot{Name: e.views[i].Name, Errors: f.win.Errors(nil), PredictorState: stateOf(f.hb)}
	}
	return st
}

// SetState installs st into a fresh ensemble by copying it — no
// observation is replayed. Families are matched by name; a family st does
// not name (after a configuration change, say) starts fresh, a name the
// ensemble does not run is ignored, and one it runs must not appear twice.
//
// st may come from an untrusted source. Lengths beyond the configured
// bounds, non-finite values and counts that contradict each other are
// reported as errors, never as panics; after an error the ensemble is
// partly overwritten and should be discarded.
func (e *Ensemble) SetState(st EnsembleState) error {
	if st.CovIn > st.CovTotal || st.CovTotal > st.Observations || st.FBAge > st.Observations {
		return fmt.Errorf("predict: coverage %d/%d or measurement age %d contradicts %d observations",
			st.CovIn, st.CovTotal, st.FBAge, st.Observations)
	}
	if st.FB == nil && st.FBAge != 0 {
		return fmt.Errorf("predict: measurement age %d without a measurement", st.FBAge)
	}
	if in := st.FB; in != nil && !(finite(in.RTT, in.AvailBw) && in.RTT >= 0 && in.AvailBw >= 0 && in.LossRate >= 0 && in.LossRate <= 1) {
		return fmt.Errorf("predict: invalid measurement %+v", *in)
	}
	// Families installed so far, one bit per zoo index, so the check stays
	// linear in the number of families a hostile state may list.
	var installed uint64
	for j := range st.Families {
		fs := &st.Families[j]
		i := slices.IndexFunc(e.views, func(v FamilyView) bool { return v.Name == fs.Name })
		if i < 0 {
			continue
		}
		if installed&(1<<i) != 0 {
			return fmt.Errorf("predict: family %q named twice", fs.Name)
		}
		installed |= 1 << i
		if err := e.setFamily(i, fs, st.Observations); err != nil {
			return fmt.Errorf("predict: family %q: %w", fs.Name, err)
		}
	}
	e.covIn, e.covTotal = st.CovIn, st.CovTotal
	e.observations = st.Observations
	if st.FB != nil {
		e.setMeasurement(*st.FB)
		e.fbSetAtObs = e.observations - st.FBAge
	}
	return nil
}

// setFamily installs fs into family i.
func (e *Ensemble) setFamily(i int, fs *FamilySnapshot, observations uint64) error {
	f := &e.families[i]
	if n := len(fs.Errors); n > f.win.ring.capacity() || uint64(n) > observations {
		return fmt.Errorf("%d errors for a window of %d and %d observations", n, f.win.ring.capacity(), observations)
	}
	for _, x := range fs.Errors {
		if !(math.Abs(x) <= stats.ErrClamp) {
			return fmt.Errorf("error %v outside ±%v", x, stats.ErrClamp)
		}
	}
	if f.hb == nil {
		if n := fs.count(); n != 0 {
			return fmt.Errorf("%d predictor states for FB", n)
		}
	} else if err := setStateOf(f.hb, fs.PredictorState); err != nil {
		return err
	}
	f.win.SetErrors(fs.Errors)
	return nil
}
