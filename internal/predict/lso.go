package predict

import (
	"fmt"
	"math"
	"slices"
)

// LSOConfig tunes the level-shift/outlier heuristics of paper §5.2. The
// paper's empirically chosen values are γ = 0.3 (level-shift relative
// median difference) and ψ = 0.4 (outlier relative deviation).
type LSOConfig struct {
	Gamma float64 // γ: minimum relative difference between segment medians
	Psi   float64 // ψ: minimum relative deviation from the median for outliers
	// MaxHistory bounds the retained window (0 = default 32). The paper's
	// applications keep only 10–20 samples; the bound also keeps the
	// re-scan cheap.
	MaxHistory int
}

// DefaultLSOConfig returns the paper's parameter choices.
func DefaultLSOConfig() LSOConfig {
	return LSOConfig{Gamma: 0.3, Psi: 0.4, MaxHistory: 32}
}

func (c LSOConfig) defaults() LSOConfig {
	if c.Gamma == 0 {
		c.Gamma = 0.3
	}
	if c.Psi == 0 {
		c.Psi = 0.4
	}
	if c.MaxHistory == 0 {
		c.MaxHistory = 32
	}
	return c
}

// LSO wraps an HB predictor with the paper's two heuristics:
//
//   - Outliers — samples deviating from the window median by more than a
//     relative difference ψ — are excluded from the history fed to the
//     inner predictor (the most recent sample is never judged an outlier,
//     since it may instead be the start of a level shift).
//
//   - Level shifts — a point X_k where every earlier sample is strictly
//     below (above) every sample from X_k on, the two segment medians
//     differ by more than a relative difference γ, and at least two
//     samples follow X_k — cause all history before X_k to be discarded
//     and the inner predictor to restart from X_k.
//
// Observations are processed incrementally: the window's order statistics
// are maintained by binary insert/remove in a sorted slice (the helpers
// every orderedRing uses) rather than a per-call sort, and the inner
// predictor is only rebuilt by replay when the outlier/shift labelling of
// the retained history actually changes — when the new sample merely
// extends the clean series, one inner Observe suffices. The forecasts are bit-for-bit identical to rebuilding from
// scratch every observation (see TestLSOIncrementalMatchesNaive).
type LSO struct {
	cfg   LSOConfig
	inner HB

	history []float64 // raw samples since the last detected level shift
	// Shifts counts detected level shifts; Outliers counts samples
	// currently labelled as outliers.
	Shifts   int
	Outliers int

	// Incremental scratch state, reused across observations so the
	// steady-state Observe path performs no allocations.
	sorted      []float64 // history's values in ascending order
	mask        []bool    // outlier mask over history
	deviant     []bool    // scratch: |x-med|/med > ψ flags
	clean       []float64 // history minus outliers
	lastClean   []float64 // clean series the inner predictor has absorbed
	cleanSorted []float64 // clean's values in ascending order, for the shift scan
}

// NewLSO wraps inner with the LSO heuristics.
func NewLSO(inner HB, cfg LSOConfig) *LSO {
	return &LSO{cfg: cfg.defaults(), inner: inner}
}

// Name implements HB.
func (l *LSO) Name() string { return l.inner.Name() + "-LSO" }

// Predict implements HB.
func (l *LSO) Predict() (float64, bool) { return l.inner.Predict() }

// Reset implements HB.
func (l *LSO) Reset() {
	l.history = l.history[:0]
	l.sorted = l.sorted[:0]
	l.lastClean = l.lastClean[:0]
	l.inner.Reset()
	l.Shifts = 0
	l.Outliers = 0
}

// History returns the retained raw sample count (for tests).
func (l *LSO) History() int { return len(l.history) }

// LSOState is an LSO's live state: the raw window since the last level
// shift (oldest first), the shift count and the inner predictor's state.
// The order statistics, outlier mask and clean series are functions of the
// window, so SetState rebuilds them rather than carrying them.
type LSOState struct {
	Window []float64      `json:"window,omitempty"`
	Shifts int            `json:"shifts,omitempty"`
	Inner  PredictorState `json:"inner"`
}

// State captures the predictor.
func (l *LSO) State() LSOState {
	return LSOState{
		Window: append([]float64(nil), l.history...),
		Shifts: l.Shifts,
		Inner:  stateOf(l.inner),
	}
}

// SetState installs st. After every Observe the series the inner
// predictor last absorbed is the clean series of the window, so rebuilding
// both from the window reproduces the live predictor exactly. On error the
// wrapper's own state is unchanged.
func (l *LSO) SetState(st LSOState) error {
	if len(st.Window) > l.cfg.MaxHistory {
		return fmt.Errorf("%s: window of %d samples exceeds MaxHistory %d", l.Name(), len(st.Window), l.cfg.MaxHistory)
	}
	if !finite(st.Window...) {
		return fmt.Errorf("%s: non-finite window", l.Name())
	}
	if st.Shifts < 0 {
		return fmt.Errorf("%s: negative shift count %d", l.Name(), st.Shifts)
	}
	if err := setStateOf(l.inner, st.Inner); err != nil {
		return err
	}
	if cap(l.history) < l.cfg.MaxHistory {
		l.history = make([]float64, 0, l.cfg.MaxHistory)
	}
	l.history = append(l.history[:0], st.Window...)
	l.Shifts = st.Shifts
	l.rebuildSorted()
	l.computeClean()
	l.Outliers = countTrue(l.mask)
	l.lastClean = append(l.lastClean[:0], l.clean...)
	return nil
}

// Observe implements HB.
func (l *LSO) Observe(x float64) {
	if cap(l.history) < l.cfg.MaxHistory {
		h := make([]float64, len(l.history), l.cfg.MaxHistory)
		copy(h, l.history)
		l.history = h
	}
	if len(l.history) == l.cfg.MaxHistory {
		// Window slide: evict the head in place and drop its order-statistic
		// entry, keeping both backing arrays stable.
		l.sorted = sortedRemove(l.sorted, l.history[0])
		copy(l.history, l.history[1:])
		l.history[len(l.history)-1] = x
	} else {
		l.history = append(l.history, x)
	}
	l.sorted = sortedInsert(l.sorted, x)

	l.computeClean()
	if k := l.findLevelShift(); k > 0 {
		l.Shifts++
		// Restart from the shift point: translate the index in the clean
		// series back to the raw history and drop everything before it.
		raw := l.cleanIndexToRaw(k, l.mask)
		n := copy(l.history, l.history[raw:])
		l.history = l.history[:n]
		l.rebuildSorted()
		l.computeClean()
	}
	l.Outliers = countTrue(l.mask)

	// Replay the inner predictor only when the labelling of the retained
	// history changed. In the common case the clean series is exactly what
	// the inner predictor already absorbed plus the new sample, and a
	// single incremental Observe produces the identical state.
	if l.cleanExtendsLast() {
		l.inner.Observe(x)
	} else {
		l.inner.Reset()
		for _, v := range l.clean {
			l.inner.Observe(v)
		}
	}
	l.lastClean = append(l.lastClean[:0], l.clean...)
}

// cleanExtendsLast reports whether clean == lastClean + [newest sample],
// i.e. no prior sample was relabelled and no window slide or shift
// discarded absorbed history.
func (l *LSO) cleanExtendsLast() bool {
	n := len(l.lastClean)
	if len(l.clean) != n+1 {
		return false
	}
	for i, v := range l.lastClean {
		if l.clean[i] != v {
			return false
		}
	}
	return true
}

// rebuildSorted reconstructs the view after a level-shift truncation.
func (l *LSO) rebuildSorted() {
	l.sorted = append(l.sorted[:0], l.history...)
	slices.Sort(l.sorted)
}

// windowMedian returns the median of the raw window in O(1) from the
// maintained order statistics.
func (l *LSO) windowMedian() float64 { return medianSorted(l.sorted) }

// medianSorted returns the median of an ascending slice (0 when empty).
func medianSorted(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// computeClean refreshes l.mask (the outlier mask over the raw window) and
// l.clean (the non-outlier samples), reusing the scratch buffers. A sample
// is an outlier if it deviates from the window median by more than ψ in
// relative terms AND is part of a short (≤2 samples), already-ended run of
// such deviations. Longer runs, and runs still in progress at the end of
// the window, are candidate level shifts and must stay in the history for
// the shift detector — otherwise a genuine shift would be shredded into
// "outliers" before it can ever be recognized.
func (l *LSO) computeClean() {
	xs := l.history
	l.mask = growBool(l.mask, len(xs))
	l.clean = l.clean[:0]
	if len(xs) < 3 {
		l.clean = append(l.clean, xs...)
		return
	}
	med := l.windowMedian()
	if med <= 0 {
		l.clean = append(l.clean, xs...)
		return
	}
	l.deviant = growBool(l.deviant, len(xs))
	deviant := l.deviant
	for i, v := range xs {
		deviant[i] = relDiff(v, med) > l.cfg.Psi
	}
	for i := 0; i < len(xs); {
		if !deviant[i] {
			i++
			continue
		}
		j := i
		for j < len(xs) && deviant[j] {
			j++
		}
		if j-i <= 2 && j < len(xs) {
			for k := i; k < j; k++ {
				l.mask[k] = true
			}
		}
		i = j
	}
	for i, v := range xs {
		if !l.mask[i] {
			l.clean = append(l.clean, v)
		}
	}
}

// growBool resizes a scratch mask to n false entries without reallocating
// in steady state.
func growBool(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// findLevelShift returns the index k in the clean series of a detected
// level shift, or 0 if none. When several k qualify it picks the one with
// the largest relative median difference.
//
// Every sample before k lies strictly below (above) every sample from k on
// exactly when the first k samples are the series' k smallest (largest)
// values, with a gap in the sorted order between them and the rest. So the
// strict-separation screen compares running prefix extrema with the clean
// series' order statistics, and a candidate's two segment medians are read
// off the same sorted values: O(n) per observation, no per-candidate sort.
func (l *LSO) findLevelShift() int {
	xs := l.clean
	n := len(xs)
	if n < 4 {
		return 0
	}
	s := l.sortClean()
	bestK, bestDiff := 0, 0.0
	preMin, preMax := xs[0], xs[0] // extrema of xs[:k]
	// Condition 3: k+2 ≤ n with 1-based indexing, i.e. at least two
	// samples follow X_k. With 0-based k: k ≤ n-3.
	for k := 1; k <= n-3; k++ {
		if v := xs[k-1]; v < preMin {
			preMin = v
		} else if v > preMax {
			preMax = v
		}
		var m1, m2 float64 // the medians of xs[:k] and xs[k:]
		switch {
		case preMax == s[k-1] && s[k-1] < s[k]: // xs[:k] are the k smallest
			m1, m2 = medianSorted(s[:k]), medianSorted(s[k:])
		case preMin == s[n-k] && s[n-k-1] < s[n-k]: // xs[:k] are the k largest
			m1, m2 = medianSorted(s[n-k:]), medianSorted(s[:n-k])
		default:
			continue
		}
		d := relDiff(m1, m2)
		if d > l.cfg.Gamma && d > bestDiff {
			bestK, bestDiff = k, d
		}
	}
	return bestK
}

// sortClean returns the clean series in ascending order: the window's
// order statistics minus the samples computeClean labelled outliers.
func (l *LSO) sortClean() []float64 {
	l.cleanSorted = append(l.cleanSorted[:0], l.sorted...)
	for i, out := range l.mask {
		if out {
			l.cleanSorted = sortedRemove(l.cleanSorted, l.history[i])
		}
	}
	return l.cleanSorted
}

// cleanIndexToRaw maps index k of the outlier-free series to the
// corresponding index in the raw history.
func (l *LSO) cleanIndexToRaw(k int, mask []bool) int {
	seen := 0
	for i := range mask {
		if mask[i] {
			continue
		}
		if seen == k {
			return i
		}
		seen++
	}
	return len(mask) - 1
}

// relDiff returns |a-b| / min(a, b), the paper's symmetric relative
// difference (infinite when the smaller value is non-positive but the
// values differ).
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	lo := a
	if b < lo {
		lo = b
	}
	if lo <= 0 {
		return 1e18
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / lo
}

func countTrue(mask []bool) int {
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

// EvalResult summarizes running an HB predictor over a series.
type EvalResult struct {
	Name   string
	Errors []float64 // relative error per predicted sample
	// Predictions pairs each error with its forecast and actual value.
	Predictions int
}

// RMSRE returns the root mean square relative error (paper Eq. 5) of the
// evaluation, clamping |E| at clampAbs before squaring when clampAbs > 0.
// ok is false when the predictor never produced a forecast (empty or
// all-unready series), so callers get a guarded zero-count result instead
// of a division by zero.
func (r EvalResult) RMSRE(clampAbs float64) (rmsre float64, ok bool) {
	if r.Predictions == 0 || len(r.Errors) == 0 {
		return 0, false
	}
	var sum float64
	for _, e := range r.Errors {
		if clampAbs > 0 {
			if e > clampAbs {
				e = clampAbs
			} else if e < -clampAbs {
				e = -clampAbs
			}
		}
		sum += e * e
	}
	return math.Sqrt(sum / float64(len(r.Errors))), true
}

// Evaluate runs a fresh predictor over the series, collecting the relative
// error E = (X̂-X)/min(X̂,X) for every sample where a forecast existed.
// The predictor is left in its final state.
func Evaluate(p HB, series []float64) EvalResult {
	res := EvalResult{Name: p.Name()}
	for _, x := range series {
		if pred, ok := p.Predict(); ok {
			res.Errors = append(res.Errors, relErr(pred, x))
			res.Predictions++
		}
		p.Observe(x)
	}
	return res
}

func relErr(pred, actual float64) float64 {
	if pred == actual {
		return 0
	}
	lo := pred
	if actual < lo {
		lo = actual
	}
	if lo <= 0 {
		if pred > actual {
			return 1e18
		}
		return -1e18
	}
	return (pred - actual) / lo
}
