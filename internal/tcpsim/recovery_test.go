package tcpsim_test

import (
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// dropper forwards packets to next but discards burstLen consecutive data
// packets out of every period data packets — a deterministic burst-loss
// process, the hardest case for non-SACK recovery.
type dropper struct {
	next     netem.Receiver
	period   int
	burstLen int
	count    int
	dropped  int
}

func (d *dropper) Receive(pkt *netem.Packet) {
	if pkt.Kind == netem.KindData {
		d.count++
		// Let slow start establish itself before the first burst, then
		// drop burstLen packets out of every period.
		if d.count > d.period {
			pos := d.count % d.period
			if pos > 0 && pos <= d.burstLen {
				d.dropped++
				return
			}
		}
	}
	d.next.Receive(pkt)
}

// runBurstLoss runs a 40 s bulk transfer through a deterministic
// burst dropper and returns throughput and timeout count.
func runBurstLoss(t *testing.T, noSACK bool, burstLen, period int) (tputBps float64, timeouts int64) {
	t.Helper()
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	path := netem.NewPath(eng, rng, netem.PathSpec{
		Name: "burst",
		Forward: []netem.Hop{
			{CapacityBps: 10e6, PropDelay: 0.03, BufferBytes: 1 << 20},
		},
	})
	conn := tcpsim.Dial(eng, path, 1, tcpsim.WithNoSACK(tcpsim.Config{}, noSACK))
	// Interpose the dropper in front of the receiver's registered handler.
	d := &dropper{next: path.B.Handler(1), period: period, burstLen: burstLen}
	path.B.Register(1, d)
	conn.Sender.Start()
	eng.RunUntil(40)
	st := conn.Sender.Stats()
	conn.Stop()
	if d.dropped == 0 {
		t.Fatal("dropper never fired")
	}
	return float64(st.BytesAcked) * 8 / 40, st.Timeouts
}

// TestSACKBeatsNewRenoOnBurstLoss: with several losses per window, SACK
// retransmits all holes within one recovery episode; NewReno retransmits
// one hole per RTT and falls back to RTOs, costing throughput.
func TestSACKBeatsNewRenoOnBurstLoss(t *testing.T) {
	sackTput, sackTO := runBurstLoss(t, false, 8, 400)
	renoTput, renoTO := runBurstLoss(t, true, 8, 400)
	t.Logf("SACK: %.2f Mbps, %d timeouts; NewReno: %.2f Mbps, %d timeouts",
		sackTput/1e6, sackTO, renoTput/1e6, renoTO)
	if sackTput <= renoTput {
		t.Errorf("SACK (%.2f Mbps) should outperform NewReno (%.2f Mbps) under burst loss",
			sackTput/1e6, renoTput/1e6)
	}
	if sackTO > renoTO {
		t.Errorf("SACK had more timeouts (%d) than NewReno (%d)", sackTO, renoTO)
	}
}

// TestSingleLossBothRecover: an isolated loss per window is the easy case;
// both variants must recover without a timeout and at similar throughput.
func TestSingleLossBothRecover(t *testing.T) {
	sackTput, sackTO := runBurstLoss(t, false, 1, 500)
	renoTput, renoTO := runBurstLoss(t, true, 1, 500)
	t.Logf("SACK: %.2f Mbps, %d timeouts; NewReno: %.2f Mbps, %d timeouts",
		sackTput/1e6, sackTO, renoTput/1e6, renoTO)
	if sackTO > 1 || renoTO > 1 {
		t.Errorf("isolated losses should not cause timeouts (SACK %d, NewReno %d)", sackTO, renoTO)
	}
	ratio := sackTput / renoTput
	if ratio < 0.8 || ratio > 1.3 {
		t.Errorf("throughput ratio %.2f for isolated losses, want ≈1", ratio)
	}
}

// TestDelayedAckTimerFires: a sender that stops at an odd segment count
// must still get the final segment acknowledged via the delayed-ACK timer.
func TestDelayedAckTimerFires(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	path := netem.NewPath(eng, rng, netem.PathSpec{
		Name: "delack",
		Forward: []netem.Hop{
			{CapacityBps: 10e6, PropDelay: 0.01, BufferBytes: 1 << 20},
		},
	})
	conn := tcpsim.Dial(eng, path, 1, tcpsim.Config{DelayedAck: true})
	done := false
	conn.Sender.SetLimit(1460, func() { done = true }) // exactly one segment
	conn.Sender.Start()
	eng.RunUntil(5)
	if !done {
		t.Error("single-segment transfer not acknowledged (delayed-ACK timer failed)")
	}
	conn.Stop()
}

// TestHandlerInterposition double-checks Endpoint.Handler returns the live
// receiver so wrappers see every packet.
func TestHandlerInterposition(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	path := netem.NewPath(eng, rng, netem.PathSpec{
		Name: "h",
		Forward: []netem.Hop{
			{CapacityBps: 10e6, PropDelay: 0.01, BufferBytes: 1 << 20},
		},
	})
	if path.B.Handler(1) != nil {
		t.Fatal("unexpected pre-registered handler")
	}
	conn := tcpsim.Dial(eng, path, 1, tcpsim.Config{})
	if path.B.Handler(1) == nil {
		t.Fatal("receiver did not register itself")
	}
	seen := 0
	inner := path.B.Handler(1)
	path.B.Register(1, netem.ReceiverFunc(func(pkt *netem.Packet) {
		seen++
		inner.Receive(pkt)
	}))
	conn.Sender.SetLimit(10*1460, nil)
	conn.Sender.Start()
	eng.RunUntil(5)
	if seen < 10 {
		t.Errorf("wrapper saw %d packets, want ≥10", seen)
	}
	conn.Stop()
}

// TestTCPSurvivesReordering: mild reordering must not collapse throughput
// (SACK + dupThresh absorb it), even though it causes some spurious
// retransmissions.
func TestTCPSurvivesReordering(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	// A reordered packet arrives one propagation delay late, so the
	// reordering hop has 2 ms of the 30 ms one-way delay: a displacement
	// of 1-2 packets (2 ms at 10 Mbps) stays below the three-dup-ACK
	// threshold; larger displacements legitimately trigger spurious
	// recoveries (the known FACK reordering intolerance).
	path := netem.NewPath(eng, rng, netem.PathSpec{
		Name: "reorder",
		Forward: []netem.Hop{
			{CapacityBps: 10e6, PropDelay: 0.028, BufferBytes: 1 << 20},
			{CapacityBps: 1e9, PropDelay: 0.002, BufferBytes: 1 << 20},
		},
		Reverse: []netem.Hop{
			{CapacityBps: 10e6, PropDelay: 0.03, BufferBytes: 1 << 20},
		},
	})
	path.Fwd[1].ReorderProb = 0.02
	conn := tcpsim.Dial(eng, path, 1, tcpsim.Config{})
	conn.Sender.Start()
	eng.RunUntil(30)
	st := conn.Sender.Stats()
	conn.Stop()
	tput := float64(st.BytesAcked) * 8 / 30
	t.Logf("2%% reordering: %.2f Mbps, %d rtx, %d timeouts", tput/1e6, st.Retransmits, st.Timeouts)
	if tput < 5e6 {
		t.Errorf("throughput %.2f Mbps collapsed under 1-2 packet reordering", tput/1e6)
	}
}
