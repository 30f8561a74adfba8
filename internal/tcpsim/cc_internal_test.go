package tcpsim

import (
	"math"
	"testing"
)

// ackClock drives a congestion control with one synthetic round of ACKs:
// int(cwnd) ACKs of one segment each at time now, as an ACK-clocked
// sender would deliver them.
func ackClock(cc CongestionControl, now float64) {
	n := int(cc.Window())
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		cc.OnAck(AckInfo{Acked: 1, Pipe: n, Now: now})
	}
}

// TestCubicConcaveConvexAroundWMax checks the defining shape of the CUBIC
// window curve after a loss: fast growth right after the epoch starts
// (concave region), a plateau around the old maximum W_max, then
// accelerating growth past it (convex probing). The TCP-friendly floor
// makes the plateau grow at the AIMD rate rather than stalling entirely,
// so the test compares per-RTT growth across regions instead of demanding
// strict second-derivative signs.
func TestCubicConcaveConvexAroundWMax(t *testing.T) {
	const (
		rtt  = 0.2
		wMax = 100.0
	)
	c := newCubic()
	c.cwnd = wMax
	c.ssthresh = wMax / 2 // congestion avoidance
	c.OnRTT(rtt, 0)
	c.OnEnterRecovery(int(wMax), 0)
	c.OnExitRecovery(0)
	if got, want := c.cwnd, wMax*cubicBeta; math.Abs(got-want) > 1e-9 {
		t.Fatalf("post-loss cwnd = %.3f, want W_max·β = %.3f", got, want)
	}

	k := math.Cbrt(wMax * (1 - cubicBeta) / cubicC) // ≈ 4.22 s
	growth := func(fromRTT, toRTT int) float64 {
		// Mean cwnd growth per RTT over rounds [fromRTT, toRTT).
		start := c.cwnd
		for r := fromRTT; r < toRTT; r++ {
			now := float64(r) * rtt
			c.OnRTT(rtt, now)
			ackClock(c, now)
		}
		return (c.cwnd - start) / float64(toRTT-fromRTT)
	}

	plateauStart := int(k/rtt) - 2
	convexStart := int(1.7*k/rtt) + 2
	early := growth(1, 9)
	growth(9, plateauStart)
	plateau := growth(plateauStart, plateauStart+5)
	atWMax := c.cwnd
	growth(plateauStart+5, convexStart)
	late := growth(convexStart, convexStart+8)

	t.Logf("growth/RTT: early=%.3f plateau=%.3f late=%.3f; cwnd at plateau=%.1f (W_max=%.0f)", early, plateau, late, atWMax, wMax)
	if early < 2*plateau {
		t.Errorf("concave region growth %.3f/RTT not ≫ plateau %.3f/RTT", early, plateau)
	}
	if late < 2*plateau {
		t.Errorf("convex region growth %.3f/RTT not ≫ plateau %.3f/RTT", late, plateau)
	}
	if atWMax < wMax*0.9 || atWMax > wMax*1.15 {
		t.Errorf("window at t≈K is %.1f, want near W_max=%.0f", atWMax, wMax)
	}
}

// TestCubicFastConvergence checks that a loss below the previous W_max
// remembers a *reduced* maximum — releasing bandwidth when the achievable
// rate is drifting down — while a loss at or above W_max records it as is.
func TestCubicFastConvergence(t *testing.T) {
	c := newCubic()
	c.cwnd, c.ssthresh = 100, 50
	c.OnEnterRecovery(100, 1)
	if c.wMax != 100 {
		t.Errorf("loss at new high: wMax = %.1f, want 100", c.wMax)
	}
	if c.cwnd != 70 {
		t.Errorf("cwnd after β-decrease = %.1f, want 70", c.cwnd)
	}
	// Second loss before regaining the old maximum.
	c.cwnd = 80
	c.OnEnterRecovery(80, 2)
	want := 80 * (2 - cubicBeta) / 2 // 52
	if math.Abs(c.wMax-want) > 1e-9 {
		t.Errorf("fast convergence: wMax = %.1f, want %.1f", c.wMax, want)
	}
}

// TestCubicSlowStartMatchesReno checks CUBIC defers to standard slow
// start below ssthresh (RFC 8312 §4.8), including the finite-ssthresh
// clamp, so loss-free short transfers are CC-invariant.
func TestCubicSlowStartMatchesReno(t *testing.T) {
	cu, re := newCubic(), newReno()
	cu.ssthresh, re.ssthresh = 64, 64
	for i := 0; i < 80; i++ {
		now := float64(i) * 0.01
		cu.OnAck(AckInfo{Acked: 1, Now: now})
		re.OnAck(AckInfo{Acked: 1, Now: now})
		if i < 62 && cu.Window() != re.Window() {
			t.Fatalf("ack %d: cubic window %.2f != reno %.2f in slow start", i, cu.Window(), re.Window())
		}
	}
	// Past ssthresh both continue in congestion avoidance; CUBIC fresh off
	// the clamp starts a plateau epoch, so growth stays small.
	if cu.Window() < 64 || cu.Window() > 66 {
		t.Errorf("cubic window %.2f after slow-start exit, want just above the 64-segment clamp", cu.Window())
	}
}

// TestBBRWindowTracksBDPGain feeds the BBR model a synthetic constant
// delivery rate and RTT and checks the steady-state invariant: the
// inflight cap cycles within the probeBW gain envelope of the true BDP,
// independent of any loss signal.
func TestBBRWindowTracksBDPGain(t *testing.T) {
	const (
		rate = 100.0 // segments/sec
		rtt  = 0.1
		bdp  = rate * rtt // 10 segments
	)
	b := newBBR()
	var minW, maxW = math.Inf(1), 0.0
	for i := 0; i < 3000; i++ {
		now := float64(i) / rate
		b.OnRTT(rtt, now)
		b.OnAck(AckInfo{Acked: 1, Pipe: int(b.Window()), Now: now})
		if now > 10 { // well past startup/drain
			if w := b.Window(); w < minW {
				minW = w
			} else if w > maxW {
				maxW = w
			}
		}
	}
	if b.state != bbrProbeBW {
		t.Fatalf("state = %d after 30 s of steady delivery, want probeBW", b.state)
	}
	if est := b.btlBwEst(); est < rate*0.8 || est > rate*1.2 {
		t.Errorf("BtlBw estimate %.1f seg/s, want ≈%.0f", est, rate)
	}
	t.Logf("window ∈ [%.1f, %.1f], BDP = %.0f", minW, maxW, bdp)
	// Cruise/probe/drain gains are 1 / 1.25 / 0.75: the whole envelope
	// must stay within those bounds (with sampling slack), and the probe
	// phase must actually lift the window above the BDP.
	if minW < 0.75*bdp*0.9 || maxW > 1.25*bdp*1.1 {
		t.Errorf("window envelope [%.1f, %.1f] outside gain cycle bounds [%.1f, %.1f]",
			minW, maxW, 0.75*bdp, 1.25*bdp)
	}
	if maxW < 1.1*bdp {
		t.Errorf("max window %.1f never probed above BDP %.0f", maxW, bdp)
	}
}

// TestBBRLossAgnostic checks the defining BBR property the ext-cc
// experiment leans on: recovery entry/exit leaves the window untouched.
func TestBBRLossAgnostic(t *testing.T) {
	b := newBBR()
	for i := 0; i < 500; i++ {
		now := float64(i) * 0.01
		b.OnRTT(0.1, now)
		b.OnAck(AckInfo{Acked: 1, Pipe: int(b.Window()), Now: now})
	}
	before := b.Window()
	b.OnEnterRecovery(int(before), 5.0)
	if b.Window() != before {
		t.Errorf("window changed on recovery entry: %.1f -> %.1f", before, b.Window())
	}
	b.OnExitRecovery(5.1)
	if b.Window() != before {
		t.Errorf("window changed on recovery exit: %.1f -> %.1f", before, b.Window())
	}
}

// TestBBRTimeoutHold checks an RTO pins the window at the floor until
// cumulative progress resumes, without discarding the model estimates.
func TestBBRTimeoutHold(t *testing.T) {
	b := newBBR()
	for i := 0; i < 500; i++ {
		now := float64(i) * 0.01
		b.OnRTT(0.1, now)
		b.OnAck(AckInfo{Acked: 1, Pipe: int(b.Window()), Now: now})
	}
	est := b.btlBwEst()
	b.OnTimeout(5.0)
	if b.Window() != bbrMinWindow {
		t.Errorf("window after RTO = %.1f, want floor %v", b.Window(), bbrMinWindow)
	}
	if b.btlBwEst() != est {
		t.Errorf("RTO discarded the BtlBw estimate")
	}
	// Dup-ACK (no cumulative progress) must not lift the hold...
	b.OnAck(AckInfo{Sacked: 1, Pipe: 4, Now: 5.5})
	if b.Window() != bbrMinWindow {
		t.Error("SACK-only progress lifted the timeout hold")
	}
	// ...but a cumulative ACK does.
	b.OnAck(AckInfo{Acked: 1, Pipe: 4, Now: 6.0})
	if b.Window() == bbrMinWindow && b.bdp() > bbrMinWindow {
		t.Error("cumulative ACK did not lift the timeout hold")
	}
}

// TestNewCongestionControlSelection checks the Config seam maps names to
// implementations and rejects unknown ones loudly.
func TestNewCongestionControlSelection(t *testing.T) {
	for _, tc := range []struct {
		in   Congestion
		want Congestion
	}{
		{"", CCReno},
		{CCReno, CCReno},
		{CCCubic, CCCubic},
		{CCBBR, CCBBR},
	} {
		cfg := Config{Congestion: tc.in}.Defaults()
		if got := NewCongestionControl(cfg).Name(); got != tc.want {
			t.Errorf("Congestion=%q -> %q, want %q", tc.in, got, tc.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown congestion control did not panic")
		}
	}()
	NewCongestionControl(Config{Congestion: "vegas"})
}
