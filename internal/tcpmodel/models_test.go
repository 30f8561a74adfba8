package tcpmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func params(p, rtt float64) Params {
	return Params{MSS: 1460, RTT: rtt, Loss: p, B: 2, RTO: 1.0}
}

func TestMathisKnownValue(t *testing.T) {
	// M/(T·sqrt(2bp/3)) with M=1460, T=0.1, b=2, p=0.01:
	// sqrt(2·2·0.01/3)=sqrt(0.013333)=0.11547 → 1460/(0.0115470) ≈ 126440 B/s
	got := Mathis(params(0.01, 0.1))
	want := 1460 / (0.1 * math.Sqrt(2*2*0.01/3))
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("Mathis = %v, want %v", got, want)
	}
}

func TestMathisZeroLossInfinite(t *testing.T) {
	if !math.IsInf(Mathis(params(0, 0.1)), 1) {
		t.Error("Mathis with p=0 should be +Inf")
	}
}

func TestPFTKReducesToWindowTerm(t *testing.T) {
	p := params(0, 0.1)
	p.Wmax = 100
	got := PFTK(p)
	want := 100 * 1460 / 0.1
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("PFTK lossless = %v, want W/T = %v", got, want)
	}
}

func TestPFTKBelowMathis(t *testing.T) {
	// The timeout term only adds to the denominator, so PFTK ≤ Mathis.
	f := func(pRaw, tRaw uint16) bool {
		p := 0.001 + float64(pRaw%1000)/2000 // (0.001, 0.5)
		rtt := 0.01 + float64(tRaw%500)/1000 // (0.01, 0.51)
		return PFTK(params(p, rtt)) <= Mathis(params(p, rtt))+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPFTKMonotoneInLoss(t *testing.T) {
	prev := math.Inf(1)
	for _, p := range []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3} {
		v := PFTK(params(p, 0.1))
		if v >= prev {
			t.Errorf("PFTK not decreasing at p=%v: %v >= %v", p, v, prev)
		}
		prev = v
	}
}

func TestPFTKMonotoneInRTT(t *testing.T) {
	prev := math.Inf(1)
	for _, rtt := range []float64{0.01, 0.05, 0.1, 0.2, 0.5} {
		v := PFTK(params(0.01, rtt))
		if v >= prev {
			t.Errorf("PFTK not decreasing at RTT=%v", rtt)
		}
		prev = v
	}
}

func TestPFTKWindowCapApplies(t *testing.T) {
	p := params(0.0001, 0.05)
	p.Wmax = 10 // tiny window
	got := PFTK(p)
	want := 10 * 1460 / 0.05
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("PFTK with tiny window = %v, want %v", got, want)
	}
}

func TestPFTKPaperVariantClose(t *testing.T) {
	// The paper's typesetting differs only in the timeout coefficient;
	// for small p the two variants agree within ~20%.
	for _, p := range []float64{0.001, 0.005, 0.01} {
		a := PFTK(params(p, 0.1))
		b := PFTKPaper(params(p, 0.1))
		if b < a {
			t.Errorf("paper variant (smaller timeout term) should predict more: %v < %v", b, a)
		}
		if b > a*1.6 {
			t.Errorf("variants too far apart at p=%v: %v vs %v", p, a, b)
		}
	}
}

func TestRevisedPFTKFiniteAndComparable(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.05, 0.2} {
		orig := PFTK(params(p, 0.1))
		rev := RevisedPFTK(params(p, 0.1))
		if math.IsNaN(rev) || rev <= 0 {
			t.Fatalf("revised PFTK invalid at p=%v: %v", p, rev)
		}
		ratio := rev / orig
		if ratio < 0.3 || ratio > 3 {
			t.Errorf("revised/original ratio %v at p=%v, want same order of magnitude", ratio, p)
		}
	}
}

func TestRevisedPFTKLossless(t *testing.T) {
	p := params(0, 0.1)
	p.Wmax = 50
	if got, want := RevisedPFTK(p), 50*1460/0.1; math.Abs(got-want) > 1e-6 {
		t.Errorf("revised PFTK lossless = %v, want %v", got, want)
	}
}

func TestModelsDegenerateInputs(t *testing.T) {
	for _, fn := range []func(Params) float64{Mathis, PFTK, PFTKPaper, RevisedPFTK} {
		v := fn(Params{MSS: 1460, RTT: 0, Loss: 0.01, B: 2, RTO: 1})
		if math.IsNaN(v) {
			t.Error("model returned NaN for zero RTT")
		}
	}
}

func TestBDefaulting(t *testing.T) {
	// B=0 must behave as b=2.
	a := PFTK(Params{MSS: 1460, RTT: 0.1, Loss: 0.01, B: 0, RTO: 1})
	b := PFTK(Params{MSS: 1460, RTT: 0.1, Loss: 0.01, B: 2, RTO: 1})
	if a != b {
		t.Errorf("B=0 (%v) should default to b=2 (%v)", a, b)
	}
	c := PFTK(Params{MSS: 1460, RTT: 0.1, Loss: 0.01, B: 1, RTO: 1})
	if c <= b {
		t.Error("b=1 should predict more than b=2")
	}
}

func TestSlowStartSegments(t *testing.T) {
	// p=0: whole transfer in slow start.
	if got := SlowStartSegments(0, 100); got != 100 {
		t.Errorf("SlowStartSegments(0,100) = %v, want 100", got)
	}
	// Large d, p>0: approaches (1-p)/p + 1.
	got := SlowStartSegments(0.01, 1<<30)
	want := (1-0.01)/0.01 + 1
	if math.Abs(got-want) > 0.01 {
		t.Errorf("asymptotic slow-start segments %v, want %v", got, want)
	}
	if SlowStartSegments(0.01, 0) != 0 {
		t.Error("zero-length transfer should have zero slow-start segments")
	}
}

func TestSlowStartNegligible(t *testing.T) {
	// 100-segment transfer at p=0.01: E[dss]≈63 → not negligible.
	if f := SlowStartSegments(0.01, 100) / 100; f < 0.05 {
		t.Errorf("slow start is %.3f of a 100-segment transfer at p=0.01, want it to dominate", f)
	}
	// 1e6-segment transfer: E[dss]≈100 → below 5%.
	if f := SlowStartSegments(0.01, 1e6) / 1e6; f >= 0.05 {
		t.Errorf("slow start is %.3f of a 1M-segment transfer, want under 0.05", f)
	}
}

func TestSlowStartMonotoneInLength(t *testing.T) {
	f := func(dRaw uint16) bool {
		d := int64(dRaw) + 1
		return SlowStartSegments(0.01, d) <= SlowStartSegments(0.01, d+1)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
