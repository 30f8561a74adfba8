package predict

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// newResidualWindow returns a window retaining the last n errors (at
// least one).
func newResidualWindow(n int) ResidualWindow {
	return ResidualWindow{ring: newOrderedRing(max(n, 1))}
}

func TestResidualWindowQuantileInversion(t *testing.T) {
	w := newResidualWindow(50)
	// A known symmetric error distribution around zero, nine errors: the
	// fewest that calibrate an interval.
	for _, e := range []float64{-0.5, -0.375, -0.25, -0.125, 0, 0.125, 0.25, 0.375, 0.5} {
		w.Push(e)
	}
	q, ok := w.QuantilesFor(100)
	if !ok {
		t.Fatal("expected calibrated quantiles")
	}
	if !(q.P10 <= q.P50 && q.P50 <= q.P90) {
		t.Fatalf("quantiles out of order: %+v", q)
	}
	// Median error 0 → P50 equals the forecast exactly.
	if q.P50 != 100 {
		t.Fatalf("P50 = %v, want 100", q.P50)
	}
	// The (n+1)·p positions 9 and 1 of 9 are the extreme errors: E=+0.5 →
	// X = 100/1.5; E=-0.5 → X = 150.
	if want := 100 / 1.5; math.Abs(q.P10-want) > 1e-9 {
		t.Fatalf("P10 = %v, want %v", q.P10, want)
	}
	if want := 150.0; math.Abs(q.P90-want) > 1e-9 {
		t.Fatalf("P90 = %v, want %v", q.P90, want)
	}
}

func TestResidualWindowClampsAndStaysFinite(t *testing.T) {
	w := newResidualWindow(8)
	w.Score(0, 5e6)           // non-positive forecast → +clamp, not -Inf
	w.Score(math.Inf(1), 5e6) // non-finite forecast
	w.Score(5e6, 0)           // degenerate actual → +Inf, clamped
	w.Push(math.NaN())        // direct garbage
	w.Push(math.Inf(-1))      //
	for _, e := range w.Errors(nil) {
		if math.IsNaN(e) || math.Abs(e) > 10 {
			t.Fatalf("unclamped error %v in window", e)
		}
	}
	if n := w.Count(); n != 5 {
		t.Fatalf("count = %d, want 5", n)
	}
}

func TestResidualWindowErrorsRoundTrip(t *testing.T) {
	w := newResidualWindow(4)
	for _, e := range []float64{1, 2, 3, 4, 5, 6} { // wraps: keeps 3,4,5,6
		w.Push(e)
	}
	got := w.Errors(nil)
	want := []float64{3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("Errors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Errors = %v, want %v", got, want)
		}
	}
	w2 := newResidualWindow(4)
	w2.SetErrors(got)
	got2 := w2.Errors(nil)
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("after SetErrors: %v, want %v", got2, want)
		}
	}
}

// TestResidualQuantileCoverage checks the residual window's core promise:
// scoring a point predictor's forecasts on a noisy but stationary series,
// roughly 80% of actuals land inside the [P10, P90] it derives.
func TestResidualQuantileCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p, win := NewEWMA(0.8), newResidualWindow(50)
	in, total := 0, 0
	for i := 0; i < 2000; i++ {
		x := 10e6 * (1 + 0.3*rng.NormFloat64())
		if x < 1e5 {
			x = 1e5
		}
		if f, ok := p.Predict(); ok {
			if q, ok := win.QuantilesFor(f); ok {
				total++
				if x >= q.P10 && x <= q.P90 {
					in++
				}
			}
			win.Score(f, x)
		}
		p.Observe(x)
	}
	if total < 1000 {
		t.Fatalf("only %d calibrated predictions", total)
	}
	cov := float64(in) / float64(total)
	if cov < 0.70 || cov > 0.90 {
		t.Fatalf("coverage = %.3f, want within [0.70, 0.90]", cov)
	}
}

func TestRegressionLearnsFeatureSignal(t *testing.T) {
	// Throughput is a clean function of available bandwidth; history alone
	// cannot track it, the feature regression can.
	rng := rand.New(rand.NewSource(7))
	reg := NewRegression(RegressionConfig{})
	ma := NewMA(10)
	var regErr, maErr float64
	n := 0
	for i := 0; i < 400; i++ {
		abw := 5e6 + 45e6*rng.Float64()
		x := 0.8 * abw
		reg.SetFeatures(FBInputs{RTT: 0.05, AvailBw: abw})
		if i > 50 {
			f1, _ := reg.Predict()
			f2, _ := ma.Predict()
			regErr += math.Abs(stats.RelativeError(f1, x))
			maErr += math.Abs(stats.RelativeError(f2, x))
			n++
		}
		reg.Observe(x)
		ma.Observe(x)
	}
	if regErr >= maErr {
		t.Fatalf("regression mean |E| %.3f not better than MA %.3f", regErr/float64(n), maErr/float64(n))
	}
	if regErr/float64(n) > 0.05 {
		t.Fatalf("regression mean |E| %.3f, want < 0.05 on a clean linear signal", regErr/float64(n))
	}
}

// TestRegressionForecastGuards mirrors the PR-2 Holt-Winters fix for the
// new family: no input sequence may produce a ≤0 or non-finite forecast,
// because those values would poison rolling error windows and JSON
// snapshots.
func TestRegressionForecastGuards(t *testing.T) {
	reg := NewRegression(RegressionConfig{})
	// A collapsing series with adversarial features: huge loss swings,
	// zero RTT, enormous avail-bw.
	series := []float64{80e6, 40e6, 10e6, 1e6, 1e5, 1e4, 1e3, 1e3, 1e3}
	feats := []FBInputs{
		{RTT: 0, LossRate: 0, AvailBw: 0},
		{RTT: 1e-9, LossRate: 1, AvailBw: 1e18},
		{RTT: 10, LossRate: 1e-9, AvailBw: 1},
		{RTT: 0.05, LossRate: 0.5, AvailBw: 1e12},
		{},
		{RTT: math.MaxFloat64, AvailBw: math.MaxFloat64},
		{RTT: 0.001},
		{LossRate: 1},
		{AvailBw: 5e3},
	}
	for i, x := range series {
		reg.SetFeatures(feats[i])
		if f, ok := reg.Predict(); ok {
			if !(f > 0) || math.IsInf(f, 0) || math.IsNaN(f) {
				t.Fatalf("step %d: guarded forecast violated: %v", i, f)
			}
		}
		reg.Observe(x)
	}
	// Garbage observations must be rejected, not absorbed.
	reg.Observe(math.Inf(1))
	reg.Observe(-5)
	reg.Observe(math.NaN())
	f, ok := reg.Predict()
	if !ok || !(f > 0) || math.IsInf(f, 0) || math.IsNaN(f) {
		t.Fatalf("forecast after garbage observations: %v %v", f, ok)
	}
}

func TestECMConditionalBeatsGlobal(t *testing.T) {
	// Two regimes distinguished only by loss rate: lossless ≈ 50 Mbps,
	// lossy ≈ 2 Mbps. After warm-up, conditioning must recover the right
	// regime's level while the global median sits in between.
	e := NewECM(ECMConfig{})
	lossless := FBInputs{RTT: 0.02, LossRate: 0, AvailBw: 60e6}
	lossy := FBInputs{RTT: 0.02, LossRate: 0.02, AvailBw: 60e6}
	for i := 0; i < 40; i++ {
		e.SetConditions(lossless)
		e.Observe(50e6)
		e.SetConditions(lossy)
		e.Observe(2e6)
	}
	e.SetConditions(lossless)
	f, ok := e.Predict()
	if !ok || math.Abs(f-50e6) > 1e6 {
		t.Fatalf("lossless forecast %v %v, want ≈50e6", f, ok)
	}
	e.SetConditions(lossy)
	f, ok = e.Predict()
	if !ok || math.Abs(f-2e6) > 1e5 {
		t.Fatalf("lossy forecast %v %v, want ≈2e6", f, ok)
	}
}

func TestECMGlobalFallback(t *testing.T) {
	e := NewECM(ECMConfig{minBucket: 5})
	for i := 0; i < 10; i++ {
		e.Observe(10e6) // no conditions set: global only
	}
	// A fresh bucket with too few samples falls back to the global median.
	e.SetConditions(FBInputs{RTT: 0.1, LossRate: 0.05, AvailBw: 1e6})
	e.Observe(1e6)
	f, ok := e.Predict()
	if !ok || f != 10e6 {
		t.Fatalf("fallback forecast %v %v, want global median 10e6", f, ok)
	}
}

// TestECMForecastGuards mirrors the HW clamp fix for ECM: garbage
// observations are rejected and every emitted value is a real observed
// sample — positive and finite.
func TestECMForecastGuards(t *testing.T) {
	e := NewECM(ECMConfig{})
	e.SetConditions(FBInputs{RTT: 0.05, LossRate: 0.001, AvailBw: 10e6})
	e.Observe(math.Inf(1))
	e.Observe(-1)
	e.Observe(0)
	e.Observe(math.NaN())
	if _, ok := e.Predict(); ok {
		t.Fatal("forecast from garbage-only history")
	}
	e.Observe(5e6)
	f, ok := e.Predict()
	if !ok || f != 5e6 {
		t.Fatalf("forecast %v %v, want the one valid sample", f, ok)
	}
}

func TestStabilitySwitcherRegimes(t *testing.T) {
	stable := NewEWMA(0.8)
	volatile := NewMA(10)
	s := NewStabilitySwitcher(stable, volatile, SwitcherConfig{window: 8, covThreshold: 0.25})
	for i := 0; i < 20; i++ {
		s.Observe(10e6 * (1 + 0.01*float64(i%2)))
	}
	if s.Volatile() {
		t.Fatal("near-constant series judged volatile")
	}
	f, _ := s.Predict()
	ef, _ := stable.Predict()
	if f != ef {
		t.Fatalf("stable regime forecast %v, want EWMA's %v", f, ef)
	}
	// Violent alternation flips the regime to the robust MA.
	for i := 0; i < 20; i++ {
		x := 1e6
		if i%2 == 0 {
			x = 50e6
		}
		s.Observe(x)
	}
	if !s.Volatile() {
		t.Fatal("alternating series judged stable")
	}
	f, _ = s.Predict()
	mf, _ := volatile.Predict()
	if f != mf {
		t.Fatalf("volatile regime forecast %v, want MA's %v", f, mf)
	}
}

// Steady-state allocation budgets, mirroring TestLSOObserveSteadyStateAllocs:
// the serving hot path runs these per observation for every tracked path.

func TestRegressionObserveSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	reg := NewRegression(RegressionConfig{})
	for i := 0; i < 200; i++ {
		reg.SetFeatures(FBInputs{RTT: 0.05, LossRate: 0.001, AvailBw: 30e6})
		reg.Observe(20e6 * (1 + 0.3*rng.Float64()))
	}
	x := 20e6 * (1 + 0.3*rng.Float64())
	avg := testing.AllocsPerRun(300, func() {
		reg.SetFeatures(FBInputs{RTT: 0.05, LossRate: 0.001, AvailBw: 30e6})
		reg.Observe(x)
		reg.Predict()
	})
	if avg != 0 {
		t.Fatalf("steady-state Regression Observe+Predict allocates %.1f times", avg)
	}
}

func TestECMObserveSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := NewECM(ECMConfig{})
	in := FBInputs{RTT: 0.05, LossRate: 0.001, AvailBw: 30e6}
	for i := 0; i < 200; i++ {
		e.SetConditions(in)
		e.Observe(20e6 * (1 + 0.3*rng.Float64()))
	}
	x := 20e6 * (1 + 0.3*rng.Float64())
	avg := testing.AllocsPerRun(300, func() {
		e.SetConditions(in)
		e.Observe(x)
		e.Predict()
	})
	if avg != 0 {
		t.Fatalf("steady-state ECM Observe+Predict allocates %.1f times", avg)
	}
}
