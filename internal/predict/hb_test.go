package predict

import (
	"math"
	"testing"
	"testing/quick"
)

func feed(p HB, xs ...float64) {
	for _, x := range xs {
		p.Observe(x)
	}
}

func TestMABasic(t *testing.T) {
	m := NewMA(3)
	if _, ok := m.Predict(); ok {
		t.Error("MA with no history should not predict")
	}
	feed(m, 1, 2, 3)
	if got, _ := m.Predict(); got != 2 {
		t.Errorf("MA(3) after 1,2,3 = %v, want 2", got)
	}
	m.Observe(4) // window now 2,3,4
	if got, _ := m.Predict(); got != 3 {
		t.Errorf("MA(3) after sliding = %v, want 3", got)
	}
}

func TestMAPartialHistory(t *testing.T) {
	m := NewMA(10)
	feed(m, 4, 6)
	if got, ok := m.Predict(); !ok || got != 5 {
		t.Errorf("MA with partial history = %v,%v; want 5,true", got, ok)
	}
}

func TestMAOrder1IsLastValue(t *testing.T) {
	m := NewMA(1)
	feed(m, 7, 3, 9)
	if got, _ := m.Predict(); got != 9 {
		t.Errorf("1-MA = %v, want last value 9", got)
	}
}

func TestMAReset(t *testing.T) {
	m := NewMA(3)
	feed(m, 1, 2, 3, 4)
	m.Reset()
	if _, ok := m.Predict(); ok {
		t.Error("reset MA should not predict")
	}
	feed(m, 10)
	if got, _ := m.Predict(); got != 10 {
		t.Errorf("MA after reset = %v, want 10", got)
	}
}

func TestMAName(t *testing.T) {
	if NewMA(10).Name() != "10-MA" {
		t.Errorf("name = %q", NewMA(10).Name())
	}
	if NewMA(0).n != 1 {
		t.Error("order <1 should clamp to 1")
	}
}

// TestMAMatchesNaive cross-checks the O(1) sliding window against a naive
// recomputation.
func TestMAMatchesNaive(t *testing.T) {
	f := func(raw []uint8, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		m := NewMA(n)
		var hist []float64
		for _, r := range raw {
			x := float64(r)
			if pred, ok := m.Predict(); ok {
				start := len(hist) - n
				if start < 0 {
					start = 0
				}
				var sum float64
				for _, v := range hist[start:] {
					sum += v
				}
				want := sum / float64(len(hist[start:]))
				if math.Abs(pred-want) > 1e-9 {
					return false
				}
			}
			m.Observe(x)
			hist = append(hist, x)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEWMABasic(t *testing.T) {
	e := NewEWMA(0.5)
	if _, ok := e.Predict(); ok {
		t.Error("EWMA with no history should not predict")
	}
	e.Observe(10)
	if got, _ := e.Predict(); got != 10 {
		t.Errorf("EWMA after first obs = %v, want 10", got)
	}
	e.Observe(20) // 0.5·20 + 0.5·10 = 15
	if got, _ := e.Predict(); got != 15 {
		t.Errorf("EWMA = %v, want 15", got)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.3)
	feed(e, 100)
	for i := 0; i < 200; i++ {
		e.Observe(5)
	}
	if got, _ := e.Predict(); math.Abs(got-5) > 1e-6 {
		t.Errorf("EWMA did not converge: %v", got)
	}
}

func TestEWMAAlphaExtremes(t *testing.T) {
	// High α tracks the last sample closely.
	hi := NewEWMA(0.95)
	feed(hi, 1, 1, 1, 100)
	got, _ := hi.Predict()
	if got < 90 {
		t.Errorf("α=0.95 EWMA = %v, want ≈100", got)
	}
	// Low α barely moves.
	lo := NewEWMA(0.05)
	feed(lo, 1, 1, 1, 100)
	got, _ = lo.Predict()
	if got > 10 {
		t.Errorf("α=0.05 EWMA = %v, want ≈1", got)
	}
}

func TestHoltWintersSeeding(t *testing.T) {
	h := NewHoltWinters(0.8, 0.2)
	if _, ok := h.Predict(); ok {
		t.Error("HW with no history should not predict")
	}
	h.Observe(10)
	if got, _ := h.Predict(); got != 10 {
		t.Errorf("HW after X0 = %v, want 10", got)
	}
}

func TestHoltWintersTracksLinearTrend(t *testing.T) {
	// On a perfect linear series the trend component should let HW
	// extrapolate accurately, unlike MA which lags.
	h := NewHoltWinters(0.8, 0.2)
	m := NewMA(10)
	for i := 0; i < 50; i++ {
		v := float64(10 + 2*i)
		h.Observe(v)
		m.Observe(v)
	}
	next := 110.0
	hw, _ := h.Predict()
	ma, _ := m.Predict()
	if math.Abs(hw-next) > 2 {
		t.Errorf("HW on linear trend = %v, want ≈%v", hw, next)
	}
	if math.Abs(ma-next) < math.Abs(hw-next) {
		t.Errorf("MA (%v) should lag behind HW (%v) on a trend", ma, hw)
	}
}

func TestHoltWintersConstantSeries(t *testing.T) {
	h := NewHoltWinters(0.8, 0.2)
	for i := 0; i < 30; i++ {
		h.Observe(42)
	}
	if got, _ := h.Predict(); math.Abs(got-42) > 1e-9 {
		t.Errorf("HW on constant series = %v, want 42", got)
	}
}

func TestHoltWintersRecurrence(t *testing.T) {
	// Hand-checked: X0=2, X1=4 seeds s=2, t=2; absorb X1:
	// f=s+t=4; s'=0.5·4+0.5·4=4; t'=0.5·(4-2)+0.5·2=2 → predict 6.
	h := NewHoltWinters(0.5, 0.5)
	feed(h, 2, 4)
	if got, _ := h.Predict(); math.Abs(got-6) > 1e-12 {
		t.Errorf("HW predict = %v, want 6", got)
	}
}

func TestHBNames(t *testing.T) {
	if got := NewEWMA(0.8).Name(); got != "0.8-EWMA" {
		t.Errorf("EWMA name = %q", got)
	}
	if got := NewHoltWinters(0.8, 0.2).Name(); got != "0.8-HW" {
		t.Errorf("HW name = %q", got)
	}
	lso := NewLSO(NewMA(10), DefaultLSOConfig())
	if got := lso.Name(); got != "10-MA-LSO" {
		t.Errorf("LSO name = %q", got)
	}
}

func TestEvaluate(t *testing.T) {
	res := Evaluate(NewMA(1), []float64{10, 10, 20})
	// Predictions start after the first observation: E for x=10 (pred 10,
	// E=0) and x=20 (pred 10, E=-1).
	if len(res) != 2 {
		t.Fatalf("predictions = %d, want 2", len(res))
	}
	if res[0] != 0 {
		t.Errorf("first error = %v, want 0", res[0])
	}
	if math.Abs(res[1]+1) > 1e-12 {
		t.Errorf("second error = %v, want -1", res[1])
	}
}

// TestPredictorsPositiveProperty: on positive series, all predictors yield
// positive forecasts.
func TestPredictorsPositiveProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r)+1)
		}
		for _, p := range []HB{NewMA(5), NewEWMA(0.5), NewLSO(NewMA(5), DefaultLSOConfig())} {
			for _, x := range xs {
				p.Observe(x)
				if pred, ok := p.Predict(); ok && pred <= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
