package tcpsim_test

import (
	"math"
	"testing"

	"repro/internal/iperf"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// lossyPath builds a path whose bottleneck drops packets at random with
// probability p, for controlled loss-recovery tests.
func lossyPath(eng *sim.Engine, p float64, seed int64) *netem.Path {
	rng := sim.NewRNG(seed)
	return netem.NewPath(eng, rng, netem.PathSpec{
		Name: "lossy",
		Forward: []netem.Hop{
			{CapacityBps: 10e6, PropDelay: 0.02, BufferBytes: 1 << 20, LossProb: p},
		},
		Reverse: []netem.Hop{
			{CapacityBps: 10e6, PropDelay: 0.02, BufferBytes: 1 << 20},
		},
	})
}

func TestTransferCompletesByteLimit(t *testing.T) {
	eng := sim.NewEngine()
	path := simplePath(eng, 10e6, 0.04, 64*1500)
	rep := iperf.RunBytes(eng, path, 1, 1<<20, 300, tcpsim.Config{})
	// The limit rounds up to whole segments.
	if rep.BytesAcked < 1<<20 || rep.BytesAcked >= 1<<20+1460 {
		t.Errorf("acked %d bytes, want 1MB rounded up to a segment", rep.BytesAcked)
	}
	if rep.Duration <= 0 || rep.Duration > 60 {
		t.Errorf("1MB on idle 10Mbps path took %v s", rep.Duration)
	}
}

func TestRecoveryUnderRandomLoss(t *testing.T) {
	eng := sim.NewEngine()
	path := lossyPath(eng, 0.01, 3)
	rep := iperf.Run(eng, path, 1, iperf.Config{Duration: 60})
	t.Logf("p=1%%: throughput=%.2f Mbps rtx=%d timeouts=%d events=%d",
		rep.ThroughputBps/1e6, rep.Retransmits, rep.Timeouts, rep.LossEvents)
	if rep.ThroughputBps < 1e6 {
		t.Errorf("throughput %.2f Mbps too low for 1%% loss, 40ms RTT", rep.ThroughputBps/1e6)
	}
	// SACK recovery should keep timeouts rare relative to loss events.
	if rep.Timeouts > rep.LossEvents/2 {
		t.Errorf("timeouts %d vs loss events %d: recovery not working", rep.Timeouts, rep.LossEvents)
	}
	// Measured loss ratio should be near the configured 1%.
	if rep.FlowLossRate < 0.004 || rep.FlowLossRate > 0.025 {
		t.Errorf("flow loss rate %.4f, want ≈0.01", rep.FlowLossRate)
	}
}

func TestThroughputScalesWithLoss(t *testing.T) {
	// 1/sqrt(p) scaling: quadrupling p should roughly halve throughput.
	run := func(p float64) float64 {
		eng := sim.NewEngine()
		path := lossyPath(eng, p, 7)
		return iperf.Run(eng, path, 1, iperf.Config{Duration: 120}).ThroughputBps
	}
	r1 := run(0.002)
	r2 := run(0.008)
	ratio := r1 / r2
	t.Logf("R(0.2%%)=%.2f Mbps, R(0.8%%)=%.2f Mbps, ratio=%.2f (ideal 2.0)", r1/1e6, r2/1e6, ratio)
	if ratio < 1.4 || ratio > 3.0 {
		t.Errorf("throughput ratio %.2f across 4x loss, want ≈2", ratio)
	}
}

func TestNoSACKStillWorks(t *testing.T) {
	eng := sim.NewEngine()
	path := lossyPath(eng, 0.005, 11)
	rep := iperf.Run(eng, path, 1, iperf.Config{
		Duration: 60,
		TCP:      tcpsim.WithNoSACK(tcpsim.Config{}, true),
	})
	t.Logf("NewReno: throughput=%.2f Mbps timeouts=%d", rep.ThroughputBps/1e6, rep.Timeouts)
	if rep.ThroughputBps < 0.5e6 {
		t.Errorf("NewReno throughput %.2f Mbps too low", rep.ThroughputBps/1e6)
	}
}

func TestDelayedAckHalvesAckCount(t *testing.T) {
	run := func(delayed bool) (acks, segs int64) {
		eng := sim.NewEngine()
		path := simplePath(eng, 10e6, 0.04, 64*1500)
		conn := tcpsim.Dial(eng, path, 1, tcpsim.Config{DelayedAck: delayed, MaxWindowBytes: 64 * 1024})
		probe := conn.Sender.Probe()
		conn.Sender.Start()
		eng.RunUntil(20)
		st := conn.Sender.Stats()
		conn.Stop()
		return probe.Acks, st.SegmentsSent
	}
	acksD, segsD := run(true)
	acksN, segsN := run(false)
	ratioD := float64(acksD) / float64(segsD)
	ratioN := float64(acksN) / float64(segsN)
	t.Logf("delayed: %.2f acks/seg; immediate: %.2f acks/seg", ratioD, ratioN)
	if ratioD > 0.65 {
		t.Errorf("delayed-ACK ratio %.2f, want ≈0.5", ratioD)
	}
	if ratioN < 0.9 {
		t.Errorf("immediate-ACK ratio %.2f, want ≈1", ratioN)
	}
}

func TestRTTSamplesSane(t *testing.T) {
	eng := sim.NewEngine()
	path := simplePath(eng, 10e6, 0.08, 64*1500)
	conn := tcpsim.Dial(eng, path, 1, tcpsim.Config{MaxWindowBytes: 32 * 1024})
	probe := conn.Sender.Probe()
	conn.Sender.Start()
	eng.RunUntil(30)
	st := conn.Sender.Stats()
	conn.Stop()
	base := path.BaseRTT(1500)
	if st.RTTSamples == 0 {
		t.Fatal("no RTT samples")
	}
	if probe.MinRTT < base*0.95 {
		t.Errorf("min RTT %.4f below propagation floor %.4f", probe.MinRTT, base)
	}
	// Window-limited flow leaves queues empty: mean should be near base
	// (delack interplay can add a little).
	if st.MeanRTT() > base+0.25 {
		t.Errorf("mean RTT %.4f far above base %.4f for window-limited flow", st.MeanRTT(), base)
	}
}

func TestCwndHalvesOnLossEvent(t *testing.T) {
	eng := sim.NewEngine()
	path := simplePath(eng, 10e6, 0.04, 32*1500)
	conn := tcpsim.Dial(eng, path, 1, tcpsim.Config{})
	conn.Sender.Start()
	// Run until the first loss event has been handled.
	for i := 0; i < 2000 && conn.Sender.Stats().LossEvents == 0; i++ {
		eng.RunUntil(eng.Now() + 0.05)
	}
	st := conn.Sender.Stats()
	if st.LossEvents == 0 {
		t.Fatal("no loss event occurred on a saturating flow with a small buffer")
	}
	if math.IsInf(conn.Sender.Ssthresh(), 1) {
		t.Error("ssthresh not set by the loss event")
	}
	conn.Stop()
}

func TestRTOFiresWhenAllAcksLost(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	// Reverse path drops everything: no ACK ever returns.
	path := netem.NewPath(eng, rng, netem.PathSpec{
		Name: "blackhole",
		Forward: []netem.Hop{
			{CapacityBps: 10e6, PropDelay: 0.02, BufferBytes: 1 << 20},
		},
		Reverse: []netem.Hop{
			{CapacityBps: 10e6, PropDelay: 0.02, BufferBytes: 1 << 20, LossProb: 1.0},
		},
	})
	conn := tcpsim.Dial(eng, path, 1, tcpsim.Config{})
	conn.Sender.Start()
	eng.RunUntil(30)
	st := conn.Sender.Stats()
	if st.Timeouts == 0 {
		t.Error("no RTO despite a dead reverse path")
	}
	if st.BytesAcked != 0 {
		t.Error("bytes acked on a dead path")
	}
	// Exponential backoff: ≤ ~6 timeouts in 30 s (3+... with backoff).
	if st.Timeouts > 8 {
		t.Errorf("%d timeouts in 30 s suggests no backoff", st.Timeouts)
	}
	conn.Stop()
}

func TestStopHaltsTransmission(t *testing.T) {
	eng := sim.NewEngine()
	path := simplePath(eng, 10e6, 0.04, 64*1500)
	conn := tcpsim.Dial(eng, path, 1, tcpsim.Config{})
	conn.Sender.Start()
	eng.RunUntil(5)
	conn.Stop()
	sent := conn.Sender.Stats().SegmentsSent
	eng.RunUntil(10)
	if conn.Sender.Stats().SegmentsSent != sent {
		t.Error("sender transmitted after Stop")
	}
}

func TestWindowLimitedFlowRespectsAdvertisedWindow(t *testing.T) {
	eng := sim.NewEngine()
	path := simplePath(eng, 100e6, 0.1, 1<<20)
	const w = 20 * 1024
	conn := tcpsim.Dial(eng, path, 1, tcpsim.Config{MaxWindowBytes: w})
	maxPipe := 0
	conn.Sender.Start()
	for i := 0; i < 100; i++ {
		eng.RunUntil(eng.Now() + 0.1)
		if p := conn.Sender.Pipe(); p > maxPipe {
			maxPipe = p
		}
	}
	conn.Stop()
	limit := w/1460 + 2 // limited transmit may add 2
	if maxPipe > limit {
		t.Errorf("pipe reached %d segments, advertised window allows %d", maxPipe, limit)
	}
}

func TestExtraDelayConnectionHasLargerRTT(t *testing.T) {
	eng := sim.NewEngine()
	path := simplePath(eng, 10e6, 0.04, 64*1500)
	conn := tcpsim.DialWithExtraDelay(eng, path, 5, 0.1, tcpsim.Config{MaxWindowBytes: 32 * 1024})
	conn.Sender.Start()
	eng.RunUntil(20)
	st := conn.Sender.Stats()
	conn.Stop()
	base := path.BaseRTT(1500)
	if st.MeanRTT() < base+0.08 {
		t.Errorf("mean RTT %.4f, want ≥ base %.4f + 0.1 extra", st.MeanRTT(), base)
	}
}

func TestGoodputMatchesReceiverDelivery(t *testing.T) {
	eng := sim.NewEngine()
	path := lossyPath(eng, 0.01, 5)
	conn := tcpsim.Dial(eng, path, 1, tcpsim.Config{})
	conn.Sender.Start()
	eng.RunUntil(30)
	sndAcked := conn.Sender.BytesAcked()
	rcvDelivered := conn.Receiver.BytesDelivered()
	conn.Stop()
	// The receiver may be slightly ahead (ACKs in flight), never behind.
	if rcvDelivered < sndAcked {
		t.Errorf("receiver delivered %d < sender acked %d", rcvDelivered, sndAcked)
	}
	if float64(rcvDelivered-sndAcked) > float64(rcvDelivered)*0.05 {
		t.Errorf("acked %d lags delivered %d by >5%%", sndAcked, rcvDelivered)
	}
}

func TestStatsRates(t *testing.T) {
	eng := sim.NewEngine()
	path := lossyPath(eng, 0.02, 9)
	rep := iperf.Run(eng, path, 1, iperf.Config{Duration: 40})
	if rep.FlowLossRate <= 0 {
		t.Error("no loss measured on 2%-loss path")
	}
	if rep.FlowEventRate <= 0 || rep.FlowEventRate > rep.FlowLossRate+1e-9 {
		t.Errorf("event rate %.5f should be in (0, loss rate %.5f]", rep.FlowEventRate, rep.FlowLossRate)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := tcpsim.Config{}.Defaults()
	if cfg.MaxWindowBytes != 1<<20 || cfg.Congestion != tcpsim.CCReno {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}
