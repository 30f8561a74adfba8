package probe_test

import (
	"math"
	"testing"

	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/sim"
)

func probePath(eng *sim.Engine, lossProb float64) *netem.Path {
	rng := sim.NewRNG(1)
	return netem.NewPath(eng, rng, netem.PathSpec{
		Name: "probe",
		Forward: []netem.Hop{
			{CapacityBps: 10e6, PropDelay: 0.025, BufferBytes: 1 << 20, LossProb: lossProb},
		},
		Reverse: []netem.Hop{
			{CapacityBps: 10e6, PropDelay: 0.025, BufferBytes: 1 << 20},
		},
	})
}

func TestProberMeasuresBaseRTT(t *testing.T) {
	eng := sim.NewEngine()
	path := probePath(eng, 0)
	probe.NewResponder(path.B, 2)
	res := probe.Measure(eng, path.A, 2, probe.Config{}, 10)
	base := path.BaseRTT(41)
	if math.Abs(res.MeanRTT-base) > 1e-6 {
		t.Errorf("mean RTT %.6f, want base %.6f on idle path", res.MeanRTT, base)
	}
	if res.LossRate != 0 {
		t.Errorf("loss rate %v on lossless path", res.LossRate)
	}
	if res.Sent < 95 || res.Sent > 105 {
		t.Errorf("sent %d probes in 10 s at 100 ms, want ≈100", res.Sent)
	}
	if res.MinRTT > res.MeanRTT || res.MeanRTT > res.MaxRTT {
		t.Error("RTT ordering broken")
	}
}

func TestProberMeasuresLossRate(t *testing.T) {
	eng := sim.NewEngine()
	path := probePath(eng, 0.1)
	probe.NewResponder(path.B, 2)
	res := probe.Measure(eng, path.A, 2, probe.Config{}, 120)
	if math.Abs(res.LossRate-0.1) > 0.035 {
		t.Errorf("loss rate %.3f, want ≈0.1", res.LossRate)
	}
}

func TestProberSeesQueueingDelay(t *testing.T) {
	eng := sim.NewEngine()
	path := probePath(eng, 0)
	probe.NewResponder(path.B, 2)
	// Saturating cross traffic into the bottleneck.
	src := netem.NewPoissonSource(eng, sim.NewRNG(2), 99, 9.5e6, 1000, nil, path.Bottleneck())
	src.Start()
	res := probe.Measure(eng, path.A, 2, probe.Config{}, 20)
	src.Stop()
	base := path.BaseRTT(41)
	// ρ=0.95 M/M/1: mean queue ≈ 19 packets ≈ 15 ms at 10 Mbps.
	if res.MeanRTT < base+0.005 {
		t.Errorf("mean RTT %.4f on 95%%-utilized path, want clearly above base %.4f", res.MeanRTT, base)
	}
	if res.MaxRTT <= res.MinRTT {
		t.Error("expected RTT variation under load")
	}
}

func TestProberWindowResets(t *testing.T) {
	eng := sim.NewEngine()
	path := probePath(eng, 0)
	probe.NewResponder(path.B, 2)
	p := probe.NewProber(eng, path.A, 2)
	p.Start()
	eng.RunUntil(5)
	w1 := p.Window()
	eng.RunUntil(eng.Now() + 5)
	w2 := p.Window()
	p.Stop()
	if w1.MeanRTT == 0 || w2.MeanRTT == 0 {
		t.Fatal("windows empty")
	}
	// Both windows should have roughly 50 probes each, not cumulative.
	if w2.Sent > w1.Sent*2 {
		t.Errorf("second window (%d) looks cumulative vs first (%d)", w2.Sent, w1.Sent)
	}
}

func TestProberStops(t *testing.T) {
	eng := sim.NewEngine()
	path := probePath(eng, 0)
	probe.NewResponder(path.B, 2)
	p := probe.NewProber(eng, path.A, 2)
	p.Start()
	eng.RunUntil(2)
	p.Stop()
	eng.RunUntil(4)
	w := p.Window()
	if w.Sent > 25 {
		t.Errorf("probes kept flowing after Stop: %d", w.Sent)
	}
}

func TestLateEchoCountsAsLoss(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	// One-way delay of 3 s exceeds the 2 s loss timeout.
	path := netem.NewPath(eng, rng, netem.PathSpec{
		Name: "slow",
		Forward: []netem.Hop{
			{CapacityBps: 10e6, PropDelay: 1.5, BufferBytes: 1 << 20},
		},
	})
	probe.NewResponder(path.B, 2)
	res := probe.Measure(eng, path.A, 2, probe.Config{}, 10)
	if res.LossRate < 0.9 {
		t.Errorf("loss rate %.2f, want ≈1 when echoes always exceed the timeout", res.LossRate)
	}
}
