package predict

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
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

// Detector runs the paper's two heuristics (§5.2) over one throughput
// series. They are a property of the series, not of a predictor: detection
// reads only the raw window and γ/ψ, so a path needs one Detector however
// many predictors read its clean series.
//
//   - Outliers — samples deviating from the window median by more than a
//     relative difference ψ — are excluded from the clean series (the most
//     recent sample is never judged an outlier, since it may instead be the
//     start of a level shift).
//
//   - Level shifts — a point X_k where every earlier sample is strictly
//     below (above) every sample from X_k on, the two segment medians
//     differ by more than a relative difference γ, and at least two
//     samples follow X_k — cause all history before X_k to be discarded,
//     so the clean series restarts from X_k.
//
// Observations are processed incrementally: the window's order statistics
// are maintained by binary insert/remove in a sorted slice (the helpers
// every orderedRing uses) rather than a per-call sort. A predictor that
// reads the clean series is only rebuilt by replay when the outlier/shift
// labelling of the retained history actually changes — when the new sample
// merely extends the clean series, one Observe suffices (see feed). The
// forecasts are bit-for-bit identical to rebuilding from scratch every
// observation (see TestLSOIncrementalMatchesNaive).
type Detector struct {
	cfg LSOConfig

	history []float64 // raw samples since the last detected level shift
	// Shifts counts detected level shifts; Outliers counts samples
	// currently labelled as outliers.
	Shifts   int
	Outliers int
	// extended reports whether the latest Observe merely appended its
	// sample to the clean series: no prior sample was relabelled and no
	// window slide or shift discarded history.
	extended bool

	// Incremental scratch state, reused across observations so the
	// steady-state Observe path performs no allocations.
	sorted      []float64 // history's values in ascending order
	mask        []bool    // outlier mask over history
	deviant     []bool    // scratch: |x-med|/med > ψ flags
	clean       []float64 // history minus outliers
	lastClean   []float64 // clean series before the latest sample
	cleanSorted []float64 // clean's values in ascending order, for the shift scan
}

// NewDetector returns a detector with no history.
func NewDetector(cfg LSOConfig) *Detector {
	n := cfg.defaults().MaxHistory
	d := new(Detector)
	d.init(cfg, make([]float64, detectorFloats*n), make([]bool, detectorFlags*n))
	return d
}

// A detector's window and scratch take detectorFloats float slices and
// detectorFlags bool slices of MaxHistory entries each; none ever holds
// more, so carved once they never grow.
const detectorFloats, detectorFlags = 5, 2

// init makes d a detector with no history whose window and scratch are
// carved from floats and flags, detectorFloats and detectorFlags times
// cfg's MaxHistory long.
func (d *Detector) init(cfg LSOConfig, floats []float64, flags []bool) {
	cfg = cfg.defaults()
	n := cfg.MaxHistory
	carve := func(i int) []float64 { return floats[i*n : i*n : (i+1)*n] }
	*d = Detector{
		cfg:     cfg,
		history: carve(0), sorted: carve(1), clean: carve(2), lastClean: carve(3), cleanSorted: carve(4),
		mask: flags[:0:n], deviant: flags[n : n : 2*n],
	}
}

// LSOState is a path's detector state: the raw window since the last level
// shift (oldest first) and the shift count. The order statistics, outlier
// mask and clean series are functions of the window, so setState rebuilds
// them rather than carrying them.
type LSOState struct {
	Window []float64
	Shifts int
}

// setState installs st. After it the clean series counts as relabelled, so
// the next feed replays it. On error the detector is unchanged.
func (d *Detector) setState(st LSOState) error {
	if len(st.Window) > d.cfg.MaxHistory {
		return fmt.Errorf("predict: LSO window of %d samples exceeds MaxHistory %d", len(st.Window), d.cfg.MaxHistory)
	}
	if !finite(st.Window...) {
		return fmt.Errorf("predict: non-finite LSO window")
	}
	if st.Shifts < 0 {
		return fmt.Errorf("predict: negative LSO shift count %d", st.Shifts)
	}
	d.history = append(d.history[:0], st.Window...)
	d.Shifts = st.Shifts
	d.rebuildSorted()
	d.computeClean()
	d.Outliers = countTrue(d.mask)
	d.extended = false
	return nil
}

// Observe adds x to the window and relabels it: outliers, then a level
// shift, which truncates the window to the shift point.
func (d *Detector) Observe(x float64) {
	d.lastClean = append(d.lastClean[:0], d.clean...)
	if len(d.history) == d.cfg.MaxHistory {
		// Window slide: evict the head in place and drop its order-statistic
		// entry, keeping both backing arrays stable.
		d.sorted = sortedRemove(d.sorted, d.history[0])
		copy(d.history, d.history[1:])
		d.history[len(d.history)-1] = x
	} else {
		d.history = append(d.history, x)
	}
	d.sorted = sortedInsert(d.sorted, x)

	d.computeClean()
	if k := d.findLevelShift(); k > 0 {
		d.Shifts++
		// Restart from the shift point: translate the index in the clean
		// series back to the raw history and drop everything before it.
		raw := d.cleanIndexToRaw(k, d.mask)
		n := copy(d.history, d.history[raw:])
		d.history = d.history[:n]
		d.rebuildSorted()
		d.computeClean()
	}
	d.Outliers = countTrue(d.mask)
	n := len(d.lastClean)
	d.extended = len(d.clean) == n+1 && slices.Equal(d.clean[:n], d.lastClean)
}

// feed brings p up to the clean series. p must have absorbed the clean
// series as it stood before the latest Observe (or, after a setState, any
// series). In the common case the clean series is exactly that plus the
// new sample, and a single incremental Observe produces the identical
// state; after a relabel, a slide, a shift or a restore p is reset and the
// clean series replayed.
func (d *Detector) feed(p HB) {
	if d.extended {
		p.Observe(d.clean[len(d.clean)-1])
		return
	}
	p.Reset()
	for _, v := range d.clean {
		p.Observe(v)
	}
}

// LSO is an HB predictor fed the clean series of its own Detector: the
// paper's HB-with-LSO for a caller that runs one predictor per series.
type LSO struct {
	*Detector
	inner HB
}

// NewLSO wraps inner with the LSO heuristics.
func NewLSO(inner HB, cfg LSOConfig) *LSO {
	return &LSO{Detector: NewDetector(cfg), inner: inner}
}

// Name implements HB.
func (l *LSO) Name() string { return l.inner.Name() + "-LSO" }

// Predict implements HB.
func (l *LSO) Predict() (float64, bool) { return l.inner.Predict() }

// Reset implements HB.
func (l *LSO) Reset() {
	l.Detector = NewDetector(l.cfg)
	l.inner.Reset()
}

// Observe implements HB.
func (l *LSO) Observe(x float64) {
	l.Detector.Observe(x)
	l.feed(l.inner)
}

// rebuildSorted reconstructs the view after a level-shift truncation.
func (d *Detector) rebuildSorted() {
	d.sorted = append(d.sorted[:0], d.history...)
	slices.Sort(d.sorted)
}

// windowMedian returns the median of the raw window in O(1) from the
// maintained order statistics.
func (d *Detector) windowMedian() float64 { return medianSorted(d.sorted) }

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

// computeClean refreshes d.mask (the outlier mask over the raw window) and
// d.clean (the non-outlier samples), reusing the scratch buffers. A sample
// is an outlier if it deviates from the window median by more than ψ in
// relative terms AND is part of a short (≤2 samples), already-ended run of
// such deviations. Longer runs, and runs still in progress at the end of
// the window, are candidate level shifts and must stay in the history for
// the shift detector — otherwise a genuine shift would be shredded into
// "outliers" before it can ever be recognized.
func (d *Detector) computeClean() {
	xs := d.history
	d.mask = growBool(d.mask, len(xs))
	d.clean = d.clean[:0]
	if len(xs) < 3 {
		d.clean = append(d.clean, xs...)
		return
	}
	med := d.windowMedian()
	if med <= 0 {
		d.clean = append(d.clean, xs...)
		return
	}
	d.deviant = growBool(d.deviant, len(xs))
	deviant := d.deviant
	for i, v := range xs {
		deviant[i] = math.Abs(stats.RelativeError(v, med)) > d.cfg.Psi
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
				d.mask[k] = true
			}
		}
		i = j
	}
	for i, v := range xs {
		if !d.mask[i] {
			d.clean = append(d.clean, v)
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
func (d *Detector) findLevelShift() int {
	xs := d.clean
	n := len(xs)
	if n < 4 {
		return 0
	}
	s := d.sortClean()
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
		diff := math.Abs(stats.RelativeError(m1, m2))
		if diff > d.cfg.Gamma && diff > bestDiff {
			bestK, bestDiff = k, diff
		}
	}
	return bestK
}

// sortClean returns the clean series in ascending order: the window's
// order statistics minus the samples computeClean labelled outliers.
func (d *Detector) sortClean() []float64 {
	d.cleanSorted = append(d.cleanSorted[:0], d.sorted...)
	for i, out := range d.mask {
		if out {
			d.cleanSorted = sortedRemove(d.cleanSorted, d.history[i])
		}
	}
	return d.cleanSorted
}

// cleanIndexToRaw maps index k of the outlier-free series to the
// corresponding index in the raw history.
func (d *Detector) cleanIndexToRaw(k int, mask []bool) int {
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

func countTrue(mask []bool) int {
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

// Evaluate runs a fresh predictor over the series and returns the relative
// error E = (X̂-X)/min(X̂,X) of every sample where a forecast existed, in
// series order. The predictor is left in its final state.
func Evaluate(p HB, series []float64) []float64 {
	var errs []float64
	for _, x := range series {
		if pred, ok := p.Predict(); ok {
			errs = append(errs, stats.RelativeError(pred, x))
		}
		p.Observe(x)
	}
	return errs
}
