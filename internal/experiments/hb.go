package experiments

import (
	"fmt"
	"math"

	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// hbPerTraceRMSRE evaluates a fresh predictor per trace on its
// throughput series and returns the per-trace RMSREs.
func hbPerTraceRMSRE(ds *testbed.Dataset, mk func() predict.HB) []float64 {
	var out []float64
	for _, tr := range ds.Traces {
		series := tr.Throughputs()
		if len(series) == 0 {
			continue
		}
		out = append(out, stats.RMSRE(predict.Evaluate(mk(), series)))
	}
	return out
}

// Fig15 — synthetic pathology traces (level shift; trend+shift+outliers;
// shift+outliers) and the RMSRE of the predictor family on each. Paper:
// LSO slashes the error on pathological traces and makes the predictor
// choice non-critical.
func Fig15() Result {
	rng := sim.NewRNG(20050817)
	traces := map[string][]float64{
		"(a) level shift":          synthLevelShift(rng.Fork()),
		"(b) trend+shift+outliers": synthTrendShiftOutliers(rng.Fork()),
		"(c) shift+outliers":       synthShiftOutliers(rng.Fork()),
	}
	names, mks := fig15Predictors()
	order := []string{"(a) level shift", "(b) trend+shift+outliers", "(c) shift+outliers"}
	t := Table{Title: "RMSRE per predictor per synthetic trace", Columns: append([]string{"predictor"}, order...)}
	for i, name := range names {
		row := []string{name}
		for _, tn := range order {
			row = append(row, fmt.Sprintf("%.3f", stats.RMSRE(predict.Evaluate(mks[i](), traces[tn]))))
		}
		t.Rows = append(t.Rows, row)
	}
	return Result{
		ID:    "fig15",
		Title: "Example pathological traces and predictor errors (paper Fig. 15 d-f)",
		Notes: []string{
			"paper: LSO variants dominate on traces with shifts/outliers; without LSO the parameter choice matters",
		},
		Tables: []Table{t},
	}
}

func fig15Predictors() ([]string, []func() predict.HB) {
	var names []string
	var mks []func() predict.HB
	lso := predict.DefaultLSOConfig()
	for _, n := range []int{1, 5, 10, 20} {
		n := n
		names = append(names, fmt.Sprintf("%d-MA", n))
		mks = append(mks, func() predict.HB { return predict.NewMA(n) })
		names = append(names, fmt.Sprintf("%d-MA-LSO", n))
		mks = append(mks, func() predict.HB { return predict.NewLSO(predict.NewMA(n), lso) })
	}
	for _, a := range []float64{0.2, 0.5, 0.8} {
		a := a
		names = append(names, fmt.Sprintf("%.1f-EWMA", a))
		mks = append(mks, func() predict.HB { return predict.NewEWMA(a) })
		names = append(names, fmt.Sprintf("%.1f-HW", a))
		mks = append(mks, func() predict.HB { return predict.NewHoltWinters(a, 0.2) })
		names = append(names, fmt.Sprintf("%.1f-HW-LSO", a))
		mks = append(mks, func() predict.HB { return predict.NewLSO(predict.NewHoltWinters(a, 0.2), lso) })
	}
	return names, mks
}

// Synthetic trace generators for Fig 15. Units are Mbps.

func synthLevelShift(rng *sim.RNG) []float64 {
	var xs []float64
	for i := 0; i < 75; i++ {
		xs = append(xs, rng.Normal(6, 0.25))
	}
	for i := 0; i < 75; i++ {
		xs = append(xs, rng.Normal(2.5, 0.2))
	}
	return xs
}

func synthTrendShiftOutliers(rng *sim.RNG) []float64 {
	var xs []float64
	for i := 0; i < 60; i++ { // rising trend
		xs = append(xs, rng.Normal(3+0.04*float64(i), 0.2))
	}
	for i := 0; i < 90; i++ { // shifted level with sporadic outliers
		v := rng.Normal(8, 0.3)
		if rng.Bool(0.05) {
			v *= rng.Uniform(0.2, 0.4)
		}
		xs = append(xs, v)
	}
	return xs
}

func synthShiftOutliers(rng *sim.RNG) []float64 {
	var xs []float64
	for i := 0; i < 150; i++ {
		level := 5.0
		if i >= 70 {
			level = 9.0
		}
		v := rng.Normal(level, 0.3)
		if rng.Bool(0.06) {
			v *= rng.Uniform(0.15, 0.45)
		}
		xs = append(xs, v)
	}
	return xs
}

// Fig16 — CDF of per-trace RMSRE for MA predictors of several orders, with
// and without LSO. Paper: n barely matters for n<20 except 1-MA; LSO
// reduces RMSRE significantly for all.
func Fig16(ds *testbed.Dataset) Result {
	lso := predict.DefaultLSOConfig()
	variants := []struct {
		name string
		mk   func() predict.HB
	}{
		{"1-MA", func() predict.HB { return predict.NewMA(1) }},
		{"5-MA", func() predict.HB { return predict.NewMA(5) }},
		{"10-MA", func() predict.HB { return predict.NewMA(10) }},
		{"20-MA", func() predict.HB { return predict.NewMA(20) }},
		{"5-MA-LSO", func() predict.HB { return predict.NewLSO(predict.NewMA(5), lso) }},
		{"10-MA-LSO", func() predict.HB { return predict.NewLSO(predict.NewMA(10), lso) }},
		{"20-MA-LSO", func() predict.HB { return predict.NewLSO(predict.NewMA(20), lso) }},
	}
	names := make([]string, len(variants))
	samples := make([][]float64, len(variants))
	for i, v := range variants {
		names[i] = v.name
		samples[i] = hbPerTraceRMSRE(ds, v.mk)
	}
	return Result{
		ID:    "fig16",
		Title: "Moving Average prediction error (per-trace RMSRE)",
		Notes: []string{
			"paper: n-MA similar for n≤20 (1-MA worst); LSO significantly reduces RMSRE",
		},
		Tables: []Table{cdfTable("per-trace RMSRE quantiles", names, samples)},
	}
}

// Fig17 — same for Holt-Winters with α ∈ {0.2, 0.5, 0.8} ± LSO, plus EWMA
// for reference. Paper: α=0.8 near-optimal; HW-LSO best overall but only
// slightly ahead of MA-LSO.
func Fig17(ds *testbed.Dataset) Result {
	lso := predict.DefaultLSOConfig()
	variants := []struct {
		name string
		mk   func() predict.HB
	}{
		{"0.2-HW", func() predict.HB { return predict.NewHoltWinters(0.2, 0.2) }},
		{"0.5-HW", func() predict.HB { return predict.NewHoltWinters(0.5, 0.2) }},
		{"0.8-HW", func() predict.HB { return predict.NewHoltWinters(0.8, 0.2) }},
		{"0.8-EWMA", func() predict.HB { return predict.NewEWMA(0.8) }},
		{"0.2-HW-LSO", func() predict.HB { return predict.NewLSO(predict.NewHoltWinters(0.2, 0.2), lso) }},
		{"0.8-HW-LSO", func() predict.HB { return predict.NewLSO(predict.NewHoltWinters(0.8, 0.2), lso) }},
	}
	names := make([]string, len(variants))
	samples := make([][]float64, len(variants))
	for i, v := range variants {
		names[i] = v.name
		samples[i] = hbPerTraceRMSRE(ds, v.mk)
	}
	return Result{
		ID:    "fig17",
		Title: "Holt-Winters prediction error (per-trace RMSRE)",
		Notes: []string{
			"paper: α=0.8 close to optimal; EWMA ≈ HW; LSO significantly improves both",
		},
		Tables: []Table{cdfTable("per-trace RMSRE quantiles", names, samples)},
	}
}

// Fig18 — sensitivity of MA-5+LSO to the LSO parameters γ and ψ. Paper:
// the CDF of |E| barely moves across reasonable (γ, ψ).
func Fig18(ds *testbed.Dataset) Result {
	combos := []struct{ gamma, psi float64 }{
		{0.2, 0.3}, {0.3, 0.4}, {0.4, 0.5}, {0.5, 0.6}, {0.3, 0.6}, {0.5, 0.4},
	}
	var names []string
	var samples [][]float64
	for _, c := range combos {
		cfg := predict.LSOConfig{Gamma: c.gamma, Psi: c.psi, MaxHistory: 32}
		var errs []float64
		for _, tr := range ds.Traces {
			for _, e := range predict.Evaluate(predict.NewLSO(predict.NewMA(5), cfg), tr.Throughputs()) {
				errs = append(errs, math.Abs(stats.ClampError(e)))
			}
		}
		names = append(names, fmt.Sprintf("γ=%.1f ψ=%.1f", c.gamma, c.psi))
		samples = append(samples, errs)
	}
	return Result{
		ID:     "fig18",
		Title:  "MA-5+LSO sensitivity to level-shift (γ) and outlier (ψ) thresholds — CDF of |E|",
		Notes:  []string{"paper: the LSO detection is not sensitive to γ and ψ"},
		Tables: []Table{cdfTable("|E| quantiles", names, samples)},
	}
}

// Fig20 — per-trace CoV of the throughput series versus the HW-LSO RMSRE.
// Paper: strong correlation (r = 0.91): the prediction error is
// approximately the CoV of the series.
func Fig20(ds *testbed.Dataset) Result {
	var covs, rmsres []float64
	for _, tr := range ds.Traces {
		series := tr.Throughputs()
		if len(series) < 4 {
			continue
		}
		p := predict.NewLSO(predict.NewHoltWinters(0.8, 0.2), predict.DefaultLSOConfig())
		rmsres = append(rmsres, stats.RMSRE(predict.Evaluate(p, series)))
		covs = append(covs, segmentedCoV(series))
	}
	r := stats.Pearson(covs, rmsres)
	t := Table{Title: fmt.Sprintf("CoV vs RMSRE (Pearson r = %.3f)", r),
		Columns: []string{"stat", "CoV", "RMSRE"}}
	for _, q := range []float64{10, 50, 90} {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("P%02.0f", q),
			fmt.Sprintf("%.3f", stats.Percentile(covs, q)),
			fmt.Sprintf("%.3f", stats.Percentile(rmsres, q)),
		})
	}
	return Result{
		ID:    "fig20",
		Title: "Per-trace throughput CoV vs HW-LSO RMSRE",
		Notes: []string{
			"paper: correlation coefficient 0.91 — RMSRE ≈ CoV to first order",
			fmt.Sprintf("measured: Pearson r = %.3f over %d traces", r, len(covs)),
		},
		Tables: []Table{t},
		Series: []Series{{Name: "cov_vs_rmsre", X: covs, Y: rmsres}},
	}
}

// segmentedCoV computes the paper's stationarity-aware CoV: split the series
// where the LSO detector reports a level shift and weight per-segment CoVs
// by length. It departs from §6.1.3 in two ways. Outliers are not
// excluded: every sample stays in its segment. And a boundary falls at the
// sample whose arrival made the shift detectable, which is at least two
// samples after the shift point X_k, not at X_k itself.
func segmentedCoV(series []float64) float64 {
	det := predict.NewDetector(predict.DefaultLSOConfig())
	var boundaries []int
	for i, x := range series {
		shifts := det.Shifts
		det.Observe(x)
		if det.Shifts > shifts {
			boundaries = append(boundaries, i)
		}
	}
	return stats.SegmentedCoV(series, boundaries)
}

// Fig21 — the four path-predictability classes: the spread of HW-LSO's
// per-trace RMSRE on each path, and a classification summary.
func Fig21(ds *testbed.Dataset) Result {
	paths := ds.PathNames()
	t := Table{
		Title:   "per-path mean and spread of per-trace RMSRE (HW-LSO)",
		Columns: []string{"path", "class", "mean RMSRE", "min", "max", "category"},
	}
	classCount := map[string]int{}
	for _, p := range paths {
		var hwlso []float64
		var class string
		for _, tr := range ds.TracesForPath(p) {
			class = tr.Class
			hw := predict.NewLSO(predict.NewHoltWinters(0.8, 0.2), predict.DefaultLSOConfig())
			hwlso = append(hwlso, stats.RMSRE(predict.Evaluate(hw, tr.Throughputs())))
		}
		mean := stats.Mean(hwlso)
		lo, hi := minmax(hwlso)
		cat := classifyPath(mean, hi-lo)
		classCount[cat]++
		t.Rows = append(t.Rows, []string{
			p, class,
			fmt.Sprintf("%.3f", mean),
			fmt.Sprintf("%.3f", lo),
			fmt.Sprintf("%.3f", hi),
			cat,
		})
	}
	notes := []string{
		"paper: paths split into (a) predictable, (b) small stable errors, (c) small but varying errors, (d) unpredictable",
	}
	for _, c := range []string{"a:predictable", "b:stable-errors", "c:varying-errors", "d:unpredictable"} {
		notes = append(notes, fmt.Sprintf("measured: class %s → %d paths", c, classCount[c]))
	}
	return Result{
		ID:     "fig21",
		Title:  "Variations in path predictability (HW-LSO per-trace RMSRE)",
		Notes:  notes,
		Tables: []Table{t},
	}
}

// classifyPath maps mean RMSRE and spread to the paper's four Fig. 21
// categories.
func classifyPath(mean, spread float64) string {
	switch {
	case mean < 0.15 && spread < 0.2:
		return "a:predictable"
	case mean < 0.5 && spread < 0.3:
		return "b:stable-errors"
	case mean < 0.5:
		return "c:varying-errors"
	default:
		return "d:unpredictable"
	}
}

func minmax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return
}

// Fig22 — HB prediction error for window-limited (small W) versus
// congestion-limited (large W) transfers, per path. Paper: window-limited
// flows have lower RMSRE, though the gap narrows when the
// congestion-limited RMSRE is already small.
func Fig22(ds *testbed.Dataset) Result {
	mk := func() predict.HB {
		return predict.NewLSO(predict.NewHoltWinters(0.8, 0.2), predict.DefaultLSOConfig())
	}
	t := Table{
		Title:   "per-path mean per-trace RMSRE (HW-LSO): W=1MB vs W=20KB",
		Columns: []string{"path", "RMSRE large-W", "RMSRE small-W"},
	}
	better, total := 0, 0
	for _, p := range ds.PathNames() {
		var largeR, smallR []float64
		for _, tr := range ds.TracesForPath(p) {
			if len(tr.Records) == 0 || tr.Records[0].SmallWindowBytes == 0 {
				continue
			}
			largeR = append(largeR, stats.RMSRE(predict.Evaluate(mk(), tr.Throughputs())))
			smallR = append(smallR, stats.RMSRE(predict.Evaluate(mk(), tr.SmallThroughputs())))
		}
		if len(largeR) == 0 {
			continue
		}
		total++
		l, s := stats.Mean(largeR), stats.Mean(smallR)
		if s < l {
			better++
		}
		t.Rows = append(t.Rows, []string{p, fmt.Sprintf("%.3f", l), fmt.Sprintf("%.3f", s)})
	}
	return Result{
		ID:    "fig22",
		Title: "HB predictability: window-limited vs congestion-limited flows",
		Notes: []string{
			"paper: window-limited flows have lower RMSRE (difference small when RMSRE already ≈0.1)",
			fmt.Sprintf("measured: small-W RMSRE lower on %d/%d paths", better, total),
		},
		Tables: []Table{t},
	}
}

// Fig23 — HW-LSO per-trace RMSRE after down-sampling the throughput series
// to multiples of the base transfer interval (the paper's 3 → 6/24/45 min).
// Paper: accuracy degrades gracefully; at 45 min, 65% of traces still have
// RMSRE < 0.4.
func Fig23(ds *testbed.Dataset, baseIntervalMin float64) Result {
	factors := []int{1, 2, 8, 15}
	mk := func() predict.HB {
		return predict.NewLSO(predict.NewHoltWinters(0.8, 0.2), predict.DefaultLSOConfig())
	}
	var names []string
	var samples [][]float64
	for _, k := range factors {
		var rmsres []float64
		for _, tr := range ds.Traces {
			series := tr.Throughputs()
			// Average the RMSRE over the k possible sampling offsets so
			// short traces still contribute a stable figure.
			var acc []float64
			for off := 0; off < k; off++ {
				down := stats.Downsample(series, k, off)
				if len(down) < 3 {
					continue
				}
				acc = append(acc, stats.RMSRE(predict.Evaluate(mk(), down)))
			}
			if len(acc) > 0 {
				rmsres = append(rmsres, stats.Mean(acc))
			}
		}
		names = append(names, fmt.Sprintf("%.0fmin", baseIntervalMin*float64(k)))
		samples = append(samples, rmsres)
	}
	return Result{
		ID:    "fig23",
		Title: "HW-LSO per-trace RMSRE vs TCP transfer interval (down-sampled)",
		Notes: []string{
			"paper: errors grow with the interval but stay reasonable; at 45 min 65% of traces have RMSRE<0.4",
		},
		Tables: []Table{cdfTable("per-trace RMSRE quantiles", names, samples)},
	}
}
