package availbw_test

import (
	"testing"

	"repro/internal/availbw"
	"repro/internal/netem"
	"repro/internal/sim"
)

func abwPath(eng *sim.Engine, capBps float64) *netem.Path {
	rng := sim.NewRNG(1)
	return netem.NewPath(eng, rng, netem.PathSpec{
		Name: "abw",
		Forward: []netem.Hop{
			{CapacityBps: capBps * 8, PropDelay: 0.005, BufferBytes: 4 << 20},
			{CapacityBps: capBps, PropDelay: 0.02, BufferBytes: 256 * 1500},
		},
		Reverse: []netem.Hop{
			{CapacityBps: capBps * 8, PropDelay: 0.025, BufferBytes: 4 << 20},
		},
	})
}

func estimate(t *testing.T, capBps, crossBps float64) availbw.Result {
	t.Helper()
	eng := sim.NewEngine()
	path := abwPath(eng, capBps)
	if crossBps > 0 {
		src := netem.NewPoissonSource(eng, sim.NewRNG(2), 99, crossBps, 1000, nil, path.Bottleneck())
		src.Start()
		defer src.Stop()
		eng.RunUntil(2)
	}
	est := availbw.NewEstimator(eng, path, 3, availbw.Config{})
	return est.Estimate()
}

func TestEstimateIdlePath(t *testing.T) {
	res := estimate(t, 10e6, 0)
	t.Logf("idle 10 Mbps: estimate %.2f Mbps [%.2f, %.2f], %d streams in %.1f s",
		res.Estimate/1e6, res.Lo/1e6, res.Hi/1e6, res.Streams, res.Duration)
	if res.Estimate < 6e6 || res.Estimate > 14e6 {
		t.Errorf("idle-path estimate %.2f Mbps, want ≈10", res.Estimate/1e6)
	}
}

func TestEstimateLoadedPath(t *testing.T) {
	res := estimate(t, 10e6, 6e6)
	t.Logf("10 Mbps with 6 Mbps cross: estimate %.2f Mbps [%.2f, %.2f]",
		res.Estimate/1e6, res.Lo/1e6, res.Hi/1e6)
	if res.Estimate < 1.5e6 || res.Estimate > 8e6 {
		t.Errorf("loaded-path estimate %.2f Mbps, want ≈4", res.Estimate/1e6)
	}
}

func TestEstimateOrdering(t *testing.T) {
	light := estimate(t, 10e6, 2e6)
	heavy := estimate(t, 10e6, 8e6)
	if light.Estimate <= heavy.Estimate {
		t.Errorf("avail-bw should decrease with load: light %.2f ≤ heavy %.2f Mbps",
			light.Estimate/1e6, heavy.Estimate/1e6)
	}
}

func TestEstimateRangeConsistent(t *testing.T) {
	res := estimate(t, 5e6, 2e6)
	if res.Lo > res.Hi {
		t.Errorf("range inverted: [%v, %v]", res.Lo, res.Hi)
	}
	if res.Estimate < res.Lo || res.Estimate > res.Hi {
		t.Errorf("estimate %v outside [%v, %v]", res.Estimate, res.Lo, res.Hi)
	}
	if res.Streams == 0 || res.Duration <= 0 {
		t.Errorf("bookkeeping empty: %+v", res)
	}
}

func TestClassifyOWDsIncreasing(t *testing.T) {
	owds := make([]float64, 100)
	for i := range owds {
		owds[i] = 0.01 + float64(i)*0.0002
	}
	if got := availbw.ClassifyOWDs(owds); got != availbw.TrendIncreasing {
		t.Errorf("monotone ramp classified %v, want increasing", got)
	}
}

func TestClassifyOWDsFlat(t *testing.T) {
	rng := sim.NewRNG(5)
	owds := make([]float64, 100)
	for i := range owds {
		owds[i] = 0.01 + rng.Normal(0, 0.0001)
	}
	if got := availbw.ClassifyOWDs(owds); got == availbw.TrendIncreasing {
		t.Errorf("flat noisy OWDs classified increasing")
	}
}

func TestClassifyOWDsNoisyRamp(t *testing.T) {
	rng := sim.NewRNG(6)
	owds := make([]float64, 100)
	for i := range owds {
		owds[i] = 0.01 + float64(i)*0.0003 + rng.Normal(0, 0.0005)
	}
	if got := availbw.ClassifyOWDs(owds); got != availbw.TrendIncreasing {
		t.Errorf("noisy ramp classified %v, want increasing", got)
	}
}

func TestClassifyOWDsTooShort(t *testing.T) {
	if got := availbw.ClassifyOWDs([]float64{1, 2, 3}); got != availbw.TrendAmbiguous {
		t.Errorf("short stream classified %v, want ambiguous", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := availbw.Config{}.Defaults()
	if cfg.StreamLength != 100 || cfg.StreamsPerRate != 2 || cfg.MaxIterations != 14 {
		t.Errorf("defaults = %+v", cfg)
	}
}
