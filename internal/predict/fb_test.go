package predict

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFBLosslessWindowLimited(t *testing.T) {
	fb := NewFB(FBConfig{MaxWindowBytes: 20 * 1024})
	// W/T̂ = 20KB·8/0.1 ≈ 1.64 Mbps, below the 5 Mbps avail-bw → W/T̂.
	got := fb.Predict(FBInputs{RTT: 0.1, LossRate: 0, AvailBw: 5e6})
	want := 20 * 1024 * 8 / 0.1
	if math.Abs(got-want) > 1 {
		t.Errorf("window-limited prediction %v, want %v", got, want)
	}
}

func TestFBLosslessAvailBwLimited(t *testing.T) {
	fb := NewFB(FBConfig{MaxWindowBytes: 1 << 20})
	// W/T̂ = 8Mb/0.1 = 84 Mbps ≫ 3 Mbps avail-bw → Â.
	got := fb.Predict(FBInputs{RTT: 0.1, LossRate: 0, AvailBw: 3e6})
	if got != 3e6 {
		t.Errorf("avail-bw prediction %v, want 3e6", got)
	}
}

func TestFBLosslessNoAvailBw(t *testing.T) {
	fb := NewFB(FBConfig{MaxWindowBytes: 1 << 20})
	got := fb.Predict(FBInputs{RTT: 0.1, LossRate: 0, AvailBw: 0})
	want := float64(1<<20) * 8 / 0.1
	if math.Abs(got-want) > 1 {
		t.Errorf("no-avail-bw prediction %v, want W/T̂ = %v", got, want)
	}
}

func TestFBLossyUsesPFTK(t *testing.T) {
	fb := NewFB(FBConfig{})
	lossy := fb.Predict(FBInputs{RTT: 0.1, LossRate: 0.01, AvailBw: 100e6})
	lossless := fb.Predict(FBInputs{RTT: 0.1, LossRate: 0, AvailBw: 100e6})
	if lossy >= lossless {
		t.Errorf("lossy prediction %v should be below lossless %v", lossy, lossless)
	}
	// The lossy branch must ignore avail-bw entirely (paper Eq. 3).
	with := fb.Predict(FBInputs{RTT: 0.1, LossRate: 0.01, AvailBw: 1e3})
	without := fb.Predict(FBInputs{RTT: 0.1, LossRate: 0.01, AvailBw: 100e6})
	if with != without {
		t.Error("PFTK branch should not depend on avail-bw")
	}
}

func TestFBZeroRTT(t *testing.T) {
	fb := NewFB(FBConfig{})
	if got := fb.Predict(FBInputs{RTT: 0, LossRate: 0.01}); got != 0 {
		t.Errorf("zero-RTT prediction %v, want 0", got)
	}
}

func TestRTO(t *testing.T) {
	if RTO(0.05) != 1 {
		t.Errorf("RTO(50ms) = %v, want 1 s floor", RTO(0.05))
	}
	if RTO(0.8) != 1.6 {
		t.Errorf("RTO(800ms) = %v, want 2·SRTT = 1.6", RTO(0.8))
	}
}

func TestFBModelsOrdering(t *testing.T) {
	in := FBInputs{RTT: 0.08, LossRate: 0.02, AvailBw: 50e6}
	pftk := NewFB(FBConfig{Model: ModelPFTK}).Predict(in)
	mathis := NewFB(FBConfig{Model: ModelMathis}).Predict(in)
	if pftk >= mathis {
		t.Errorf("PFTK (%v) should predict below Mathis (%v): extra timeout term", pftk, mathis)
	}
	rev := NewFB(FBConfig{Model: ModelRevisedPFTK}).Predict(in)
	if rev <= 0 || math.IsInf(rev, 0) {
		t.Errorf("revised PFTK = %v", rev)
	}
}

func TestFBMonotoneInLossProperty(t *testing.T) {
	fb := NewFB(FBConfig{})
	f := func(aRaw, bRaw uint16) bool {
		a := 0.0005 + float64(aRaw%1000)/3000
		b := 0.0005 + float64(bRaw%1000)/3000
		if a > b {
			a, b = b, a
		}
		pa := fb.Predict(FBInputs{RTT: 0.1, LossRate: a})
		pb := fb.Predict(FBInputs{RTT: 0.1, LossRate: b})
		return pa >= pb-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFBWindowCapAlwaysHolds(t *testing.T) {
	f := func(pRaw, tRaw, wRaw uint16) bool {
		w := 8*1024 + int(wRaw)%(1<<20)
		fb := NewFB(FBConfig{MaxWindowBytes: w})
		in := FBInputs{
			RTT:      0.005 + float64(tRaw%500)/1000,
			LossRate: float64(pRaw%100) / 1000,
			AvailBw:  20e6,
		}
		pred := fb.Predict(in)
		cap := float64(w) * 8 / in.RTT
		return pred <= cap+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFBDefaultsApplied(t *testing.T) {
	fb := NewFB(FBConfig{})
	if fb.cfg.MaxWindowBytes != 1<<20 || fb.cfg.B != 2 {
		t.Errorf("defaults not applied: %+v", fb.cfg)
	}
}
