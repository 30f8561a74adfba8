package predict

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestLSODetectsIncreasingShift(t *testing.T) {
	l := NewLSO(NewMA(10), DefaultLSOConfig())
	feed(l, 1, 1.1, 0.9, 1, 1.05, 5, 5.1, 4.9, 5)
	if l.Shifts == 0 {
		t.Fatal("increasing level shift not detected")
	}
	// After the restart the forecast should reflect the new level only.
	got, _ := l.Predict()
	if got < 4 {
		t.Errorf("post-shift forecast %v, want ≈5", got)
	}
}

func TestLSODetectsDecreasingShift(t *testing.T) {
	l := NewLSO(NewMA(10), DefaultLSOConfig())
	feed(l, 8, 8.2, 7.9, 8.1, 2, 2.1, 1.9)
	if l.Shifts == 0 {
		t.Fatal("decreasing level shift not detected")
	}
	got, _ := l.Predict()
	if got > 3 {
		t.Errorf("post-shift forecast %v, want ≈2", got)
	}
}

func TestLSOShiftNeedsTwoFollowers(t *testing.T) {
	// Condition 3 (k+2 ≤ n): a single high sample is not yet a shift.
	l := NewLSO(NewMA(10), DefaultLSOConfig())
	feed(l, 1, 1.05, 0.95, 1, 5)
	if l.Shifts != 0 {
		t.Error("shift declared with only one sample after the change")
	}
	feed(l, 5.1)
	if l.Shifts != 0 {
		t.Error("shift declared with only two samples at the new level... condition is k+2<=n with the shift at k; 2 followers are required")
	}
	feed(l, 4.9)
	if l.Shifts == 0 {
		t.Error("shift not declared once two samples follow the shift point")
	}
}

func TestLSOSmallShiftIgnored(t *testing.T) {
	// A 10% level change is below γ=0.3.
	l := NewLSO(NewMA(10), DefaultLSOConfig())
	feed(l, 1, 1, 1, 1, 1.1, 1.1, 1.1, 1.1)
	if l.Shifts != 0 {
		t.Errorf("shift detected for a sub-threshold change (γ=0.3)")
	}
}

func TestLSOIgnoresOutlier(t *testing.T) {
	l := NewLSO(NewMA(10), DefaultLSOConfig())
	feed(l, 10, 10.2, 9.8, 10, 2 /* outlier */, 10.1, 9.9)
	if l.Outliers == 0 {
		t.Fatal("outlier not detected")
	}
	if l.Shifts != 0 {
		t.Error("outlier misclassified as level shift")
	}
	got, _ := l.Predict()
	if math.Abs(got-10) > 0.5 {
		t.Errorf("forecast %v should ignore the outlier (want ≈10)", got)
	}
}

func TestLSOOutlierVsPlainMA(t *testing.T) {
	series := []float64{10, 10, 10, 1, 10, 10}
	plain := Evaluate(NewMA(5), append([]float64(nil), series...))
	lso := Evaluate(NewLSO(NewMA(5), DefaultLSOConfig()), append([]float64(nil), series...))
	rms := func(es []float64) float64 {
		var s float64
		for _, e := range es {
			s += e * e
		}
		return math.Sqrt(s / float64(len(es)))
	}
	// Prediction of the outlier itself is equally bad for both, but the
	// post-outlier forecasts recover faster with LSO.
	if rms(lso) >= rms(plain) {
		t.Errorf("LSO RMS %v not better than plain %v", rms(lso), rms(plain))
	}
}

func TestLSOLastSampleNeverOutlier(t *testing.T) {
	l := NewLSO(NewMA(10), DefaultLSOConfig())
	feed(l, 10, 10, 10, 10, 3)
	// The 3 could be the start of a shift; it must remain in history.
	if l.Outliers != 0 {
		t.Error("most recent sample must not be labelled an outlier")
	}
}

func TestLSOStationaryNoise(t *testing.T) {
	// Pure stationary noise: no shifts should be detected at γ=0.3 with
	// ±5% noise.
	rng := sim.NewRNG(4)
	l := NewLSO(NewMA(10), DefaultLSOConfig())
	for i := 0; i < 200; i++ {
		l.Observe(rng.Normal(10, 0.3))
	}
	if l.Shifts > 1 {
		t.Errorf("detected %d shifts in stationary noise", l.Shifts)
	}
}

func TestLSOHistoryBounded(t *testing.T) {
	cfg := DefaultLSOConfig()
	cfg.MaxHistory = 16
	l := NewLSO(NewMA(10), cfg)
	for i := 0; i < 100; i++ {
		l.Observe(5)
	}
	if len(l.history) > 16 {
		t.Errorf("history %d exceeds MaxHistory 16", len(l.history))
	}
}

func TestLSOReset(t *testing.T) {
	l := NewLSO(NewMA(5), DefaultLSOConfig())
	feed(l, 1, 1, 1, 5, 5, 5)
	l.Reset()
	if len(l.history) != 0 || l.Shifts != 0 || l.Outliers != 0 {
		t.Error("reset did not clear state")
	}
	if _, ok := l.Predict(); ok {
		t.Error("reset LSO should not predict")
	}
}

func TestLSOPassthroughWhenClean(t *testing.T) {
	// On a clean series LSO must agree with the bare predictor.
	series := []float64{5, 5.1, 4.9, 5.05, 4.95, 5}
	bare := Evaluate(NewMA(3), append([]float64(nil), series...))
	wrapped := Evaluate(NewLSO(NewMA(3), DefaultLSOConfig()), append([]float64(nil), series...))
	if len(bare) != len(wrapped) {
		t.Fatal("prediction counts differ")
	}
	for i := range bare {
		if math.Abs(bare[i]-wrapped[i]) > 1e-9 {
			t.Fatalf("clean-series divergence at %d: %v vs %v", i, bare[i], wrapped[i])
		}
	}
}

func TestLSOPaperTraceShapes(t *testing.T) {
	// The paper's Fig. 15 claim: on a shift+outlier trace, HW-LSO beats
	// plain HW substantially.
	rng := sim.NewRNG(77)
	var series []float64
	for i := 0; i < 150; i++ {
		level := 5.0
		if i >= 70 {
			level = 9.0
		}
		v := rng.Normal(level, 0.3)
		if rng.Bool(0.06) {
			v *= 0.25
		}
		series = append(series, v)
	}
	// Errors in the 15 epochs right after the shift: plain MA(10) averages
	// across the two levels for ~10 samples, LSO restarts and snaps to the
	// new level (paper Fig. 15 d-f). Unavoidable outlier-epoch errors are
	// identical for both, so the comparison targets the shift transient.
	postShiftRMS := func(p HB) float64 {
		res := Evaluate(p, append([]float64(nil), series...))
		var s float64
		n := 0
		for i := 73; i < 82; i++ {
			e := res[i-1] // Errors[k] predicts series[k+1]
			s += e * e
			n++
		}
		return math.Sqrt(s / float64(n))
	}
	plainMA := postShiftRMS(NewMA(10))
	lsoMA := postShiftRMS(NewLSO(NewMA(10), DefaultLSOConfig()))
	if lsoMA >= plainMA*0.75 {
		t.Errorf("MA-LSO post-shift RMSRE %v not clearly better than MA %v", lsoMA, plainMA)
	}
	// HW self-heals quickly (α=0.8), so the paper reports only a slight
	// gain; LSO must at least not hurt materially.
	plainHW := postShiftRMS(NewHoltWinters(0.8, 0.2))
	lsoHW := postShiftRMS(NewLSO(NewHoltWinters(0.8, 0.2), DefaultLSOConfig()))
	if lsoHW > plainHW*1.1 {
		t.Errorf("HW-LSO post-shift RMSRE %v materially worse than HW %v", lsoHW, plainHW)
	}
}

// TestRelDiff checks the symmetric relative difference |a-b| / min(a, b)
// that the LSO heuristics compare against Psi and Gamma.
func TestRelDiff(t *testing.T) {
	relDiff := func(a, b float64) float64 { return math.Abs(stats.RelativeError(a, b)) }
	if relDiff(1, 1.3) <= 0.29 || relDiff(1, 1.3) >= 0.31 {
		t.Errorf("relDiff(1,1.3) = %v, want 0.3", relDiff(1, 1.3))
	}
	if relDiff(1.3, 1) != relDiff(1, 1.3) {
		t.Error("relDiff must be symmetric")
	}
	if relDiff(2, 2) != 0 {
		t.Error("relDiff of equal values must be 0")
	}
	if relDiff(0, 1) < 1e17 {
		t.Error("relDiff with non-positive min should be huge")
	}
}

func TestMedianOf(t *testing.T) {
	if medianOf([]float64{3, 1, 2}) != 2 {
		t.Error("odd median wrong")
	}
	if medianOf([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("even median wrong")
	}
	if medianOf(nil) != 0 {
		t.Error("empty median should be 0")
	}
}

func TestEvalResultRMSREGuard(t *testing.T) {
	// Empty series: no forecast is ever made, so there are no errors and
	// RMSRE reports 0 rather than dividing by zero.
	if errs := Evaluate(NewMA(5), nil); len(errs) != 0 || stats.RMSRE(errs) != 0 {
		t.Errorf("empty series: got %d predictions, RMSRE %v, want 0, 0", len(errs), stats.RMSRE(errs))
	}
	// All-unready series: a single observation never yields a prediction.
	if errs := Evaluate(NewMA(5), []float64{4e6}); len(errs) != 0 || stats.RMSRE(errs) != 0 {
		t.Errorf("all-unready series: got %d predictions, RMSRE %v, want 0, 0", len(errs), stats.RMSRE(errs))
	}
	// Non-degenerate case: errors are clamped and averaged under a sqrt.
	res := Evaluate(NewMA(1), []float64{1e6, 2e6, 2e6})
	if len(res) != 2 {
		t.Fatalf("got %d errors, want 2", len(res))
	}
	// Errors: (1e6-2e6)/1e6 = -1, (2e6-2e6) = 0 → RMSRE = sqrt(1/2).
	want := math.Sqrt(0.5)
	if r := stats.RMSRE(res); math.Abs(r-want) > 1e-12 {
		t.Errorf("RMSRE = %v, want %v", r, want)
	}
}
