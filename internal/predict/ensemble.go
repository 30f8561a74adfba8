package predict

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
)

// Ensemble runs the predictor zoo for one path as an online tournament.
// It is the one place the zoo exists: the prediction service keeps one per
// path behind a lock, and the offline experiments drive one per trace.
//
// The families, in order, are the paper's four: the HB trio (MA, EWMA and
// Holt-Winters with LSO, §5) and FB (§4). The trio shares the path's one
// Detector: detection runs once per observation and the three predictors
// read its clean series. Each family keeps a ResidualWindow of its Eq.-4
// errors. The paper's protocol is followed exactly: when an observation X
// arrives, each family's standing forecast X̂ is scored with
// E = (X̂-X)/min(X̂,X) before X reaches any predictor. The same windows
// calibrate the quantiles and carry the regret bookkeeping.
//
// An Ensemble is not goroutine-safe, and it is one allocation: its
// predictors, windows and scratch point into its own storage, so it must
// not be copied.
type Ensemble struct {
	families [zooFamilies]family
	views    [zooFamilies]FamilyView // View's backing store, reused across calls
	det      Detector                // the §5.2 detector the HB trio reads

	ma   MA
	ewma EWMA
	hw   HoltWinters
	fb   FB

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

	// floats and flags back every slice above: the error rings, MA's
	// buffer and the detector's window and scratch.
	floats [zooFamilies*2*zooErrorWindow + zooMAOrder + detectorFloats*zooLSOWindow]float64
	flags  [detectorFlags * zooLSOWindow]bool
}

// family is one tournament entrant: one of the HB trio, which reads the
// detector's clean series, or FB (hb nil), whose forecast is a function of
// the standing measurements rather than of history.
type family struct {
	hb  HB
	win ResidualWindow
}

// The zoo's one configuration: the paper's parameters, fixed once (§5).
// Records do not carry them, so every node of a cluster serves the same
// zoo and any node can restore any record.
const (
	// zooFamilies is the number of families: the HB trio, then FB at
	// index zooFB.
	zooFamilies, zooFB = 4, 3
	// zooErrorWindow is the number of most recent relative errors (Eq. 4)
	// each family keeps for its rolling RMSRE and quantiles.
	zooErrorWindow = 50
	// zooLSOWindow is the detector's window, LSOConfig's default.
	zooLSOWindow = 32
	// zooMAOrder is the moving-average order, the paper's sweet spot for
	// stationary paths.
	zooMAOrder = 10
	// zooEWMAAlpha is the EWMA weight; zooHWAlpha and zooHWBeta are the
	// Holt-Winters weights.
	zooEWMAAlpha          = 0.8
	zooHWAlpha, zooHWBeta = 0.8, 0.2
	// zooStaleAfter is how many observations may follow a measurement
	// before the FB forecast is flagged stale and excluded from selection.
	// It is counted in observations, not wall time, so the ensemble stays a
	// deterministic function of its inputs.
	zooStaleAfter = 30
)

// The HB trio as NewEnsemble copies it (all but MA's buffer), and the
// family names in zoo order, built once so that an ensemble allocates no
// name strings.
var (
	zooMA, zooEWMA, zooHW = *NewMA(zooMAOrder), *NewEWMA(zooEWMAAlpha), *NewHoltWinters(zooHWAlpha, zooHWBeta)
	zooNames              = [zooFamilies]string{zooMA.Name() + "-LSO", zooEWMA.Name() + "-LSO", zooHW.Name() + "-LSO", "FB"}
)

// NewEnsemble builds the zoo: the HB trio behind one detector with the
// paper's thresholds (its best configurations), then FB for the paper's
// target flow (PFTK, 1460 B MSS, 1 MB window, delayed ACKs).
func NewEnsemble() *Ensemble {
	e := &Ensemble{ma: zooMA, ewma: zooEWMA, hw: zooHW, fb: FB{cfg: FBConfig{}.defaults()}}
	floats := e.floats[:]
	take := func(n int) []float64 {
		b := floats[:n:n]
		floats = floats[n:]
		return b
	}
	e.ma.buf = take(zooMAOrder)[:0]
	e.det.init(LSOConfig{MaxHistory: zooLSOWindow}, take(detectorFloats*zooLSOWindow), e.flags[:])
	for i, hb := range [zooFamilies]HB{&e.ma, &e.ewma, &e.hw, nil} {
		e.families[i] = family{hb: hb, win: ResidualWindow{ring: orderedRingOver(take(2 * zooErrorWindow))}}
		e.views[i].Name = zooNames[i]
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

// SetMeasurement installs a-priori path measurements (T̂, p̂, Â), the FB
// inputs. It restarts the measurement age and returns the FB forecast for
// the inputs (0 when they give no basis for prediction).
func (e *Ensemble) SetMeasurement(in FBInputs) float64 {
	e.fbIn, e.hasFB = in, true
	e.fbSetAtObs = e.observations
	return e.fb.Predict(in)
}

// Observe absorbs the throughput x of the path's latest transfer. The
// tournament winner's standing [P10,P90] is scored for coverage, then
// every family's standing forecast is scored against x (Eq. 4), and only
// then do the predictors see x: the detector labels it once, and the HB
// trio reads the clean series.
func (e *Ensemble) Observe(x float64) {
	e.fill(false)
	if w := e.pick(); w >= 0 {
		if q, ok := e.families[w].win.QuantilesFor(e.views[w].Forecast); ok {
			e.covTotal++
			if x >= q.P10 && x <= q.P90 {
				e.covIn++
			}
		}
	}
	e.det.Observe(x)
	for i := range e.families {
		f := &e.families[i]
		if v := &e.views[i]; v.Ready && v.Forecast > 0 {
			f.win.Score(v.Forecast, x)
		}
		if f.hb != nil {
			e.det.feed(f.hb)
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
	Stale  bool // FB only: the measurements are older than 30 observations
	// Quantiles is the calibrated P10/P50/P90 of the forecast, valid when
	// Calibrated: residual quantiles of the error window.
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
	// During warm-up, until two families have three scored errors each,
	// it is the first family with a positive forecast. -1 when no family
	// has one.
	Selected int
	// FB indexes the FB family.
	FB int
}

// View evaluates every family once — forecast, rolling RMSRE, regret and
// quantiles — and runs the selection over the result.
func (e *Ensemble) View() View {
	e.fill(true)
	return View{Families: e.views[:], Selected: e.pick(), FB: zooFB}
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

// LSOStats returns the path's detected level shifts and the samples
// currently labelled outliers.
func (e *Ensemble) LSOStats() (shifts, outliers int) {
	return e.det.Shifts, e.det.Outliers
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
	stale := e.observations-e.fbSetAtObs > zooStaleAfter
	for i := range e.families {
		v := &e.views[i]
		v.Forecast, v.Ready = e.forecast(i)
		v.Stale = i == zooFB && stale
		v.Quantiles, v.Calibrated = Quantiles{}, false
		if quantiles {
			v.Quantiles, v.Calibrated = e.families[i].win.QuantilesFor(v.Forecast)
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

// pick runs the selection documented on View over the filled views. The
// warm-up stand-in is the first family eligible at all: FB is scored from
// the first observation and the HB trio from the second, so a lone
// qualified family has only outlasted the others, not beaten them.
func (e *Ensemble) pick() int {
	best, first, qualified, bestRMSRE := -1, -1, 0, math.Inf(1)
	for i := range e.views {
		v := &e.views[i]
		if v.Stale || !v.Ready || v.Forecast <= 0 {
			continue
		}
		if first < 0 {
			first = i
		}
		if v.Errors >= residualMinSamples {
			qualified++
			if v.RMSRE < bestRMSRE {
				best, bestRMSRE = i, v.RMSRE
			}
		}
	}
	if qualified < 2 {
		return first
	}
	return best
}

// EnsembleState is the whole tournament of one path: the lifetime
// observation count, the standing measurements (nil until one is
// installed) and how many observations ago they were, the detector's
// window, every family's error window and the coverage counters. The HB
// trio's predictors are not part of it: each is a function of the
// detector's clean series, so SetState rebuilds them from the window. Its
// binary form (AppendBinary) is what the prediction service persists per
// path.
//
// State and UnmarshalBinary fill an EnsembleState in its own storage,
// reused from one fill to the next: FB then points into st, and the
// windows share one backing array, valid until st is next filled.
type EnsembleState struct {
	Observations uint64
	FB           *FBInputs
	FBAge        uint64
	LSO          LSOState
	// Errors holds every family's error window, oldest first, in zoo
	// order.
	Errors   [][]float64
	CovIn    uint64
	CovTotal uint64

	fb     FBInputs  // FB's storage
	floats []float64 // the windows' backing array
}

// reuse zeroes st but keeps its storage, the list of error windows emptied
// and the backing array with room for n floats.
func (st *EnsembleState) reuse(n int) {
	floats, errs := st.floats[:0], st.Errors[:0]
	if cap(floats) < n {
		floats = make([]float64, 0, n)
	}
	*st = EnsembleState{floats: floats, Errors: errs}
}

// since returns the floats appended to the backing array from start on,
// capped so that an append to them cannot reach the next window.
func (st *EnsembleState) since(start int) []float64 {
	n := len(st.floats)
	return st.floats[start:n:n]
}

// State captures the ensemble into st, reusing st's storage. SetState on a
// fresh ensemble reproduces it exactly, at any history length.
func (e *Ensemble) State(st *EnsembleState) {
	n := len(e.det.history)
	for i := range e.families {
		n += e.families[i].win.Count()
	}
	st.reuse(n)
	st.Observations, st.CovIn, st.CovTotal = e.observations, e.covIn, e.covTotal
	if e.hasFB {
		st.fb, st.FB, st.FBAge = e.fbIn, &st.fb, e.observations-e.fbSetAtObs
	}
	st.floats = append(st.floats, e.det.history...)
	st.LSO = LSOState{Window: st.since(0), Shifts: e.det.Shifts}
	st.Errors = slices.Grow(st.Errors, zooFamilies)[:zooFamilies]
	for i := range e.families {
		start := len(st.floats)
		st.floats = e.families[i].win.Errors(st.floats)
		st.Errors[i] = st.since(start)
	}
}

// SetState installs st into a fresh ensemble: the detector's window, the
// counters, the measurement and its age, and the error windows in zoo
// order; then each of the HB trio replays the restored detector's clean
// series, which is how the detector rebuilds a predictor after any
// relabel, so the trio forecasts exactly as it did when st was captured.
//
// st may come from an untrusted source. Lengths beyond the zoo's bounds,
// non-finite values and counts that contradict each other — an error
// window count other than the zoo's size among them — are reported as
// errors, never as panics; after an error the ensemble is partly
// overwritten and should be discarded.
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
	if len(st.Errors) != len(e.families) {
		return fmt.Errorf("predict: %d error windows, want %d", len(st.Errors), len(e.families))
	}
	if err := e.det.setState(st.LSO); err != nil {
		return err
	}
	for i, errs := range st.Errors {
		if err := e.families[i].setErrors(errs, st.Observations); err != nil {
			return fmt.Errorf("predict: family %q: %w", e.views[i].Name, err)
		}
	}
	for i := range e.families {
		if f := &e.families[i]; f.hb != nil {
			e.det.feed(f.hb)
		}
	}
	e.covIn, e.covTotal = st.CovIn, st.CovTotal
	e.observations = st.Observations
	if st.FB != nil {
		e.fbIn, e.hasFB = *st.FB, true
		e.fbSetAtObs = e.observations - st.FBAge
	}
	return nil
}

// setErrors installs a restored error window, oldest first.
func (f *family) setErrors(errs []float64, observations uint64) error {
	if n := len(errs); n > f.win.ring.capacity() || uint64(n) > observations {
		return fmt.Errorf("%d errors for a window of %d and %d observations", n, f.win.ring.capacity(), observations)
	}
	for _, x := range errs {
		if !(math.Abs(x) <= stats.ErrClamp) {
			return fmt.Errorf("error %v outside ±%v", x, stats.ErrClamp)
		}
	}
	f.win.SetErrors(errs)
	return nil
}
