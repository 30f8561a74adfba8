package tcpmodel

import (
	"math"
	"testing"
)

func shortParams(p, rtt float64) Params {
	return Params{MSS: 1460, RTT: rtt, Loss: p, B: 2, RTO: 1, Wmax: 718}
}

func TestShortTransferTimeZero(t *testing.T) {
	if ShortTransferTime(shortParams(0.01, 0.1), 0) != 0 {
		t.Error("zero-segment transfer should take zero time")
	}
}

func TestShortTransferLosslessSmall(t *testing.T) {
	// 14 segments lossless from w0=2 with γ=1.5:
	// cumulative segments per round: 2, 5, 9.5, 16.25 → under 4 rounds.
	p := shortParams(0, 0.1)
	tt := ShortTransferTime(p, 14)
	if tt < 0.3 || tt > 0.5 {
		t.Errorf("14 segments lossless took %v, want ≈4 RTTs (0.4 s)", tt)
	}
}

func TestShortTransferMonotoneInSize(t *testing.T) {
	p := shortParams(0.01, 0.08)
	prev := 0.0
	for _, d := range []int64{1, 10, 100, 1000, 10000} {
		tt := ShortTransferTime(p, d)
		if tt <= prev {
			t.Errorf("transfer time not increasing at d=%d: %v <= %v", d, tt, prev)
		}
		prev = tt
	}
}

func TestShortTransferConvergesToPFTK(t *testing.T) {
	// For very large transfers the average throughput approaches the PFTK
	// steady-state rate.
	p := shortParams(0.01, 0.08)
	big := ShortTransferThroughput(p, 1e6)
	pftk := PFTK(p)
	if math.Abs(big-pftk)/pftk > 0.05 {
		t.Errorf("large-transfer throughput %v, PFTK %v: should converge", big, pftk)
	}
}

func TestShortTransferSlowerThanBulkForSmallD(t *testing.T) {
	// Small transfers never reach the steady-state rate, so their average
	// throughput must be below PFTK.
	p := shortParams(0.005, 0.08)
	small := ShortTransferThroughput(p, 20)
	pftk := PFTK(p)
	if small >= pftk {
		t.Errorf("20-segment throughput %v not below PFTK %v", small, pftk)
	}
}

func TestShortTransferWindowCapSlowsSlowStart(t *testing.T) {
	uncapped := shortParams(0, 0.1)
	uncapped.Wmax = 1e9
	capped := shortParams(0, 0.1)
	capped.Wmax = 8
	d := int64(200)
	tu := ShortTransferTime(uncapped, d)
	tc := ShortTransferTime(capped, d)
	if tc <= tu {
		t.Errorf("capped window (%v) should be slower than uncapped (%v)", tc, tu)
	}
}

func TestSlowStartRounds(t *testing.T) {
	// From w0=2 with γ=2 (b=1): rounds deliver 2, 6, 14, 30...
	r, w := slowStartRounds(14, 2, 2, 1e9)
	if r < 2.8 || r > 3.2 {
		t.Errorf("rounds for 14 segments = %v, want ≈3", r)
	}
	if w < 14 || w > 18 {
		t.Errorf("final window %v, want ≈16", w)
	}
	// Cap: window stops growing at wmax.
	rCapped, wCapped := slowStartRounds(1000, 2, 2, 8)
	if wCapped != 8 {
		t.Errorf("capped final window %v, want 8", wCapped)
	}
	if rCapped <= r {
		t.Error("capped slow start should need more rounds")
	}
}

func TestShortTransferThroughputPositive(t *testing.T) {
	for _, loss := range []float64{0, 0.001, 0.01, 0.1} {
		for _, d := range []int64{1, 10, 1000} {
			v := ShortTransferThroughput(shortParams(loss, 0.05), d)
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("throughput(p=%v, d=%d) = %v", loss, d, v)
			}
		}
	}
}
