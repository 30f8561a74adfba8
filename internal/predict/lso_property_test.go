package predict

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/stats"
)

// naiveLSO is the pre-optimization reference implementation: it re-sorts
// the window and rebuilds the inner predictor from scratch on every single
// observation. The incremental LSO must match it bit for bit.
type naiveLSO struct {
	cfg     LSOConfig
	inner   HB
	history []float64

	Shifts   int
	Outliers int
}

func newNaiveLSO(inner HB, cfg LSOConfig) *naiveLSO {
	return &naiveLSO{cfg: cfg.defaults(), inner: inner}
}

func (l *naiveLSO) Predict() (float64, bool) { return l.inner.Predict() }

func (l *naiveLSO) Observe(x float64) {
	l.history = append(l.history, x)
	if len(l.history) > l.cfg.MaxHistory {
		l.history = l.history[len(l.history)-l.cfg.MaxHistory:]
	}
	clean, outliers := l.removeOutliers(l.history)
	if k := l.findLevelShift(clean); k > 0 {
		l.Shifts++
		raw := l.cleanIndexToRaw(k, outliers)
		l.history = append([]float64(nil), l.history[raw:]...)
		clean, outliers = l.removeOutliers(l.history)
	}
	l.Outliers = countTrue(outliers)
	l.inner.Reset()
	for _, v := range clean {
		l.inner.Observe(v)
	}
}

func (l *naiveLSO) removeOutliers(xs []float64) ([]float64, []bool) {
	mask := make([]bool, len(xs))
	if len(xs) < 3 {
		return append([]float64(nil), xs...), mask
	}
	med := medianOf(xs)
	if med <= 0 {
		return append([]float64(nil), xs...), mask
	}
	deviant := make([]bool, len(xs))
	for i, v := range xs {
		deviant[i] = math.Abs(stats.RelativeError(v, med)) > l.cfg.Psi
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
				mask[k] = true
			}
		}
		i = j
	}
	clean := make([]float64, 0, len(xs))
	for i, v := range xs {
		if !mask[i] {
			clean = append(clean, v)
		}
	}
	return clean, mask
}

func (l *naiveLSO) findLevelShift(xs []float64) int {
	n := len(xs)
	if n < 4 {
		return 0
	}
	bestK, bestDiff := 0, 0.0
	for k := 1; k <= n-3; k++ {
		lowMax, lowMin := maxOf(xs[:k]), minOf(xs[:k])
		hiMax, hiMin := maxOf(xs[k:]), minOf(xs[k:])
		increasing := lowMax < hiMin
		decreasing := lowMin > hiMax
		if !increasing && !decreasing {
			continue
		}
		m1, m2 := medianOf(xs[:k]), medianOf(xs[k:])
		d := math.Abs(stats.RelativeError(m1, m2))
		if d > l.cfg.Gamma && d > bestDiff {
			bestK, bestDiff = k, d
		}
	}
	return bestK
}

func (l *naiveLSO) cleanIndexToRaw(k int, mask []bool) int {
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

// medianOf, minOf and maxOf are the naive twin's per-call order statistics.
func medianOf(xs []float64) float64 {
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// throughputSeries generates a randomized series with the structures LSO
// exists to handle: a wandering base level, multiplicative noise, injected
// outlier spikes/dips (runs of 1–2), and occasional sharp level shifts.
func throughputSeries(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, 0, n)
	level := 2e6 + rng.Float64()*20e6
	for len(xs) < n {
		switch r := rng.Float64(); {
		case r < 0.03:
			// Level shift up or down by 1.5–4×.
			f := 1.5 + rng.Float64()*2.5
			if rng.Intn(2) == 0 {
				level *= f
			} else {
				level /= f
			}
		case r < 0.10:
			// Outlier run of 1–2 samples far off the level.
			run := 1 + rng.Intn(2)
			f := 2 + rng.Float64()*3
			v := level * f
			if rng.Intn(2) == 0 {
				v = level / f
			}
			for i := 0; i < run && len(xs) < n; i++ {
				xs = append(xs, v*(1+0.02*rng.NormFloat64()))
			}
			continue
		}
		xs = append(xs, level*(1+0.08*rng.NormFloat64()))
	}
	return xs
}

// TestLSOIncrementalMatchesNaive drives the incremental LSO and the naive
// rebuild-everything twin over randomized throughput series and requires
// bit-identical forecasts, shift counts, and outlier labelling after every
// observation, across all inner predictor families and several window
// sizes.
func TestLSOIncrementalMatchesNaive(t *testing.T) {
	inners := map[string]func() HB{
		"MA8":   func() HB { return NewMA(8) },
		"EWMA":  func() HB { return NewEWMA(0.5) },
		"HW":    func() HB { return NewHoltWinters(0.8, 0.2) },
		"Last":  func() HB { return NewMA(1) },
		"MA100": func() HB { return NewMA(100) },
	}
	for name, mk := range inners {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				for _, hist := range []int{10, 32} {
					cfg := LSOConfig{MaxHistory: hist}
					fast := NewLSO(mk(), cfg)
					slow := newNaiveLSO(mk(), cfg)
					rng := rand.New(rand.NewSource(seed))
					for i, x := range throughputSeries(rng, 400) {
						fast.Observe(x)
						slow.Observe(x)
						fp, fok := fast.Predict()
						sp, sok := slow.Predict()
						if fok != sok || fp != sp {
							t.Fatalf("seed %d hist %d sample %d: forecast diverged: incremental (%v,%v) naive (%v,%v)",
								seed, hist, i, fp, fok, sp, sok)
						}
						if fast.Shifts != slow.Shifts || fast.Outliers != slow.Outliers {
							t.Fatalf("seed %d hist %d sample %d: labelling diverged: shifts %d/%d outliers %d/%d",
								seed, hist, i, fast.Shifts, slow.Shifts, fast.Outliers, slow.Outliers)
						}
					}
				}
			}
		})
	}
}

// TestLSOMatchesNaiveOnTies repeats the comparison on series rounded to a
// coarse grid, so samples tie often: a split whose two sides share a value
// is not a strict separation, and the incremental screen must see that.
func TestLSOMatchesNaiveOnTies(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		cfg := LSOConfig{MaxHistory: 12}
		fast, slow := NewLSO(NewMA(4), cfg), newNaiveLSO(NewMA(4), cfg)
		rng := rand.New(rand.NewSource(seed))
		for i, x := range throughputSeries(rng, 400) {
			x = math.Round(x/2e6) * 2e6
			fast.Observe(x)
			slow.Observe(x)
			fp, fok := fast.Predict()
			sp, sok := slow.Predict()
			if fok != sok || fp != sp || fast.Shifts != slow.Shifts || fast.Outliers != slow.Outliers {
				t.Fatalf("seed %d sample %d: incremental (%v,%v, %d shifts, %d outliers), naive (%v,%v, %d, %d)",
					seed, i, fp, fok, fast.Shifts, fast.Outliers, sp, sok, slow.Shifts, slow.Outliers)
			}
		}
	}
}

// TestLSOObserveSteadyStateAllocs: once warm, the incremental Observe path
// must not touch the allocator (inner replay included).
func TestLSOObserveSteadyStateAllocs(t *testing.T) {
	l := NewLSO(NewHoltWinters(0.8, 0.2), DefaultLSOConfig())
	rng := rand.New(rand.NewSource(7))
	series := throughputSeries(rng, 600)
	for _, x := range series[:200] {
		l.Observe(x)
	}
	i := 200
	avg := testing.AllocsPerRun(300, func() {
		l.Observe(series[i])
		i++
	})
	if avg > 0 {
		t.Errorf("steady-state Observe allocates %.2f allocs/op, want 0", avg)
	}
}

// TestEnsembleHBTrioMatchesLSOWrappers: the ensemble's HB trio reads one
// shared detector, and must forecast exactly as three independent LSO
// wrappers of the same predictors do — bit for bit, after every
// observation, through level shifts, outlier runs and window slides. The
// ensemble's detection counts are one wrapper's, not their sum. The naive
// twins, which rebuild their predictor on every observation, keep the
// comparison honest should the wrappers and the ensemble share a defect.
func TestEnsembleHBTrioMatchesLSOWrappers(t *testing.T) {
	var shifts, outliers, slides int // steps that saw each
	for seed := int64(0); seed < 20; seed++ {
		e := NewEnsemble()
		mks := []func() HB{
			func() HB { return NewMA(10) },
			func() HB { return NewEWMA(0.8) },
			func() HB { return NewHoltWinters(0.8, 0.2) },
		}
		var wrappers []*LSO
		var naive []*naiveLSO
		for _, mk := range mks {
			wrappers = append(wrappers, NewLSO(mk(), LSOConfig{}))
			naive = append(naive, newNaiveLSO(mk(), LSOConfig{}))
		}
		rng := rand.New(rand.NewSource(seed))
		for i, x := range throughputSeries(rng, 400) {
			e.Observe(x)
			v := e.View()
			for k, w := range wrappers {
				w.Observe(x)
				naive[k].Observe(x)
				want, wantOK := w.Predict()
				rebuilt, rebuiltOK := naive[k].Predict()
				if f := v.Families[k]; f.Name != w.Name() || f.Forecast != want || f.Ready != wantOK || rebuilt != want || rebuiltOK != wantOK {
					t.Fatalf("seed %d sample %d: %s forecasts (%v,%v), wrapper %s (%v,%v), naive twin (%v,%v)",
						seed, i, f.Name, f.Forecast, f.Ready, w.Name(), want, wantOK, rebuilt, rebuiltOK)
				}
			}
			w := wrappers[0]
			if s, o := e.LSOStats(); s != w.Shifts || o != w.Outliers {
				t.Fatalf("seed %d sample %d: LSOStats %d shifts, %d outliers; one wrapper %d, %d",
					seed, i, s, o, w.Shifts, w.Outliers)
			}
			if w.Shifts > 0 {
				shifts++
			}
			if w.Outliers > 0 {
				outliers++
			}
			if len(w.history) == w.cfg.MaxHistory {
				slides++
			}
		}
	}
	if shifts == 0 || outliers == 0 || slides == 0 {
		t.Fatalf("steps after a shift %d, with an outlier %d, with a full window %d; want all three", shifts, outliers, slides)
	}
}
