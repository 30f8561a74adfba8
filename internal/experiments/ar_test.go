package experiments

import (
	"math"
	"testing"

	"repro/internal/predict"
	"repro/internal/sim"
)

func feed(p predict.HB, xs ...float64) {
	for _, x := range xs {
		p.Observe(x)
	}
}

func TestARWarmupFallsBackToMean(t *testing.T) {
	a := newAR(3, 0)
	if _, ok := a.Predict(); ok {
		t.Error("AR with no data should not predict")
	}
	feed(a, 4, 6)
	got, ok := a.Predict()
	if !ok || got != 5 {
		t.Errorf("warm-up prediction = %v,%v; want mean 5", got, ok)
	}
}

func TestARConstantSeries(t *testing.T) {
	a := newAR(2, 0)
	for i := 0; i < 50; i++ {
		a.Observe(7)
	}
	got, _ := a.Predict()
	if math.Abs(got-7) > 1e-9 {
		t.Errorf("AR on constant series = %v, want 7", got)
	}
}

func TestARTracksAR1Process(t *testing.T) {
	// Generate x_t = 0.8·x_{t-1} + ε; AR(1) should forecast ≈0.8·x_last
	// around the mean and beat the window mean.
	rng := sim.NewRNG(5)
	a := newAR(1, 64)
	const phi = 0.8
	x := 0.0
	var xs []float64
	for i := 0; i < 500; i++ {
		x = phi*x + rng.Normal(0, 1)
		xs = append(xs, x+20) // positive offset like throughput
	}
	var errAR, errMean float64
	m := predict.NewMA(64)
	for _, v := range xs {
		if p, ok := a.Predict(); ok {
			errAR += (p - v) * (p - v)
		}
		if p, ok := m.Predict(); ok {
			errMean += (p - v) * (p - v)
		}
		a.Observe(v)
		m.Observe(v)
	}
	if errAR >= errMean {
		t.Errorf("AR(1) MSE %.1f not better than mean MSE %.1f on an AR(1) process", errAR, errMean)
	}
}

func TestARWhiteNoiseNotWorseThanMean(t *testing.T) {
	rng := sim.NewRNG(9)
	a := newAR(3, 0)
	m := predict.NewMA(32)
	var errAR, errMean float64
	for i := 0; i < 400; i++ {
		v := rng.Normal(10, 1)
		if p, ok := a.Predict(); ok {
			errAR += (p - v) * (p - v)
		}
		if p, ok := m.Predict(); ok {
			errMean += (p - v) * (p - v)
		}
		a.Observe(v)
		m.Observe(v)
	}
	if errAR > errMean*1.25 {
		t.Errorf("AR(3) MSE %.1f much worse than mean MSE %.1f on white noise", errAR, errMean)
	}
}

func TestARGuardAgainstExplosiveForecast(t *testing.T) {
	a := newAR(4, 16)
	// Degenerate near-linear ramp then a jump; the fit can go wild, the
	// guard must keep the forecast within a sane band of the window.
	for i := 0; i < 16; i++ {
		a.Observe(float64(i))
	}
	got, ok := a.Predict()
	if !ok {
		t.Fatal("no prediction")
	}
	if got < -40 || got > 60 {
		t.Errorf("forecast %v outside guard band", got)
	}
}

func TestARReset(t *testing.T) {
	a := newAR(2, 0)
	feed(a, 1, 2, 3, 4, 5)
	a.Reset()
	if _, ok := a.Predict(); ok {
		t.Error("reset AR should not predict")
	}
}

func TestARName(t *testing.T) {
	if newAR(3, 0).Name() != "AR(3)" {
		t.Errorf("name = %q", newAR(3, 0).Name())
	}
}

func TestHybridStartsAsFB(t *testing.T) {
	h := newHybrid(predict.FBConfig{Model: predict.ModelPFTK}, 0.5)
	fb := predict.NewFB(predict.FBConfig{Model: predict.ModelPFTK})
	in := predict.FBInputs{RTT: 0.08, LossRate: 0.01, AvailBw: 10e6}
	if h.Predict(in) != fb.Predict(in) {
		t.Error("untrained hybrid must equal pure FB")
	}
	if h.n != 0 || h.logBias != 0 {
		t.Errorf("untrained hybrid holds a bias: n=%d log-bias %v", h.n, h.logBias)
	}
}

func TestHybridLearnsBias(t *testing.T) {
	h := newHybrid(predict.FBConfig{Model: predict.ModelPFTK}, 0.5)
	in := predict.FBInputs{RTT: 0.08, LossRate: 0.01, AvailBw: 10e6}
	raw := h.Predict(in)
	// The path consistently delivers half of what the formula says.
	for i := 0; i < 10; i++ {
		h.Predict(in)
		h.Observe(raw / 2)
	}
	corrected := h.Predict(in)
	if math.Abs(corrected-raw/2) > raw*0.05 {
		t.Errorf("hybrid after training = %v, want ≈%v", corrected, raw/2)
	}
	if h.n != 10 {
		t.Errorf("samples = %d", h.n)
	}
}

func TestHybridBiasClamped(t *testing.T) {
	h := newHybrid(predict.FBConfig{Model: predict.ModelPFTK}, 0.9)
	in := predict.FBInputs{RTT: 0.08, LossRate: 0.01, AvailBw: 10e6}
	raw := h.Predict(in)
	for i := 0; i < 20; i++ {
		h.Predict(in)
		h.Observe(raw * 1e6) // absurd outcome
	}
	if h.logBias > 3+1e-9 {
		t.Errorf("bias %v exceeds clamp e³", math.Exp(h.logBias))
	}
}

func TestHybridIgnoresObserveWithoutPredict(t *testing.T) {
	h := newHybrid(predict.FBConfig{}, 0.5)
	h.Observe(5e6)
	if h.n != 0 {
		t.Error("observe without a preceding predict should be ignored")
	}
}

// BenchmarkARFit measures one AR(3) fit+forecast over a full window.
func BenchmarkARFit(b *testing.B) {
	a := newAR(3, 64)
	rng := sim.NewRNG(1)
	for i := 0; i < 64; i++ {
		a.Observe(rng.Normal(5e6, 5e5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := a.Predict(); !ok {
			b.Fatal("no prediction")
		}
	}
}
