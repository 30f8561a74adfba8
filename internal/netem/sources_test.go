package netem

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestPoissonSourceRate(t *testing.T) {
	eng := sim.NewEngine()
	var bytes int64
	sink := ReceiverFunc(func(p *Packet) { bytes += int64(p.Size) })
	src := NewPoissonSource(eng, sim.NewRNG(2), 1, 2e6, 1000, nil, sink)
	src.Start()
	eng.RunUntil(200)
	src.Stop()
	rate := float64(bytes) * 8 / 200
	if math.Abs(rate-2e6) > 0.1e6 {
		t.Errorf("Poisson rate %.2f Mbps, want ≈2", rate/1e6)
	}
}

func TestPoissonSourceLoadModulation(t *testing.T) {
	eng := sim.NewEngine()
	var bytes int64
	sink := ReceiverFunc(func(p *Packet) { bytes += int64(p.Size) })
	src := NewPoissonSource(eng, sim.NewRNG(2), 1, 2e6, 1000, ConstantLoad(0.5), sink)
	src.Start()
	eng.RunUntil(200)
	src.Stop()
	rate := float64(bytes) * 8 / 200
	if math.Abs(rate-1e6) > 0.1e6 {
		t.Errorf("modulated rate %.2f Mbps, want ≈1", rate/1e6)
	}
}

func TestPoissonSourceStops(t *testing.T) {
	eng := sim.NewEngine()
	n := 0
	src := NewPoissonSource(eng, sim.NewRNG(2), 1, 1e6, 1000, nil, ReceiverFunc(func(*Packet) { n++ }))
	src.Start()
	eng.RunUntil(10)
	src.Stop()
	before := n
	eng.RunUntil(20)
	if n != before {
		t.Errorf("source emitted %d packets after Stop", n-before)
	}
}

func TestParetoOnOffAverageRate(t *testing.T) {
	eng := sim.NewEngine()
	var bytes int64
	sink := ReceiverFunc(func(p *Packet) { bytes += int64(p.Size) })
	// Peak 4 Mbps, ON 1/4 of the time → ~1 Mbps average.
	src := NewParetoOnOffSource(eng, sim.NewRNG(3), 1, 4e6, 1000, 0.5, 1.5, 1.5, nil, sink)
	src.Start()
	eng.RunUntil(2000)
	src.Stop()
	rate := float64(bytes) * 8 / 2000
	if rate < 0.6e6 || rate > 1.6e6 {
		t.Errorf("Pareto ON/OFF average %.2f Mbps, want ≈1 (heavy-tailed, wide tolerance)", rate/1e6)
	}
}

func TestParetoOnOffBurstyAtPeak(t *testing.T) {
	eng := sim.NewEngine()
	var times []float64
	src := NewParetoOnOffSource(eng, sim.NewRNG(3), 1, 8e6, 1000, 0.5, 1.5, 1.5, nil,
		ReceiverFunc(func(*Packet) { times = append(times, eng.Now()) }))
	src.Start()
	eng.RunUntil(100)
	src.Stop()
	if len(times) < 10 {
		t.Fatalf("only %d packets in 100 s", len(times))
	}
	// Within an ON period, the gap equals the peak-rate serialization time.
	peakGap := 1000 * 8 / 8e6
	n := 0
	for i := 1; i < len(times); i++ {
		if math.Abs(times[i]-times[i-1]-peakGap) < 1e-9 {
			n++
		}
	}
	if n == 0 {
		t.Error("no back-to-back packets at peak rate")
	}
}

func TestLoadProcessConstant(t *testing.T) {
	lp := ConstantLoad(1.5)
	for _, x := range []float64{0, 1, 100, 1e6} {
		if lp.At(x) != 1.5 {
			t.Errorf("ConstantLoad at %v = %v", x, lp.At(x))
		}
	}
}

func TestGenerateLoadBounds(t *testing.T) {
	cfg := DefaultLoadConfig(6 * 3600)
	lp := GenerateLoad(sim.NewRNG(11), cfg)
	f := func(tRaw uint32) bool {
		tm := float64(tRaw%21600) + float64(tRaw%1000)/1000
		v := lp.At(tm)
		// Bursts may exceed MaxLevel transiently up to MaxLevel (clamped),
		// and trends may drift below minLevel but never below zero.
		return v >= 0 && v <= cfg.MaxLevel*1.01+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGenerateLoadHasShifts(t *testing.T) {
	cfg := DefaultLoadConfig(6 * 3600)
	lp := GenerateLoad(sim.NewRNG(12), cfg)
	if len(lp.segs) < 2 {
		t.Errorf("expected some level shifts/bursts over 6 h, got %d segments", len(lp.segs))
	}
}

func TestGenerateLoadDeterministic(t *testing.T) {
	cfg := DefaultLoadConfig(3600)
	a := GenerateLoad(sim.NewRNG(5), cfg)
	b := GenerateLoad(sim.NewRNG(5), cfg)
	for tm := 0.0; tm < 3600; tm += 97.3 {
		if a.At(tm) != b.At(tm) {
			t.Fatalf("same-seed load processes differ at t=%v", tm)
		}
	}
}

func TestGenerateLoadZeroHorizon(t *testing.T) {
	lp := GenerateLoad(sim.NewRNG(5), LoadConfig{})
	if lp.At(100) != 1 {
		t.Errorf("zero-horizon load = %v, want 1", lp.At(100))
	}
}

func TestLoadAtMonotonicLookup(t *testing.T) {
	// The binary search must pick the segment whose start ≤ t.
	lp := &LoadProcess{segs: []loadSeg{
		{start: 0, level: 1},
		{start: 10, level: 2},
		{start: 20, level: 3},
	}}
	cases := map[float64]float64{0: 1, 5: 1, 10: 2, 15: 2, 20: 3, 1e9: 3}
	for tm, want := range cases {
		if got := lp.At(tm); got != want {
			t.Errorf("At(%v) = %v, want %v", tm, got, want)
		}
	}
}
