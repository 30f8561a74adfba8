// Benchmarks regenerating every table and figure of the paper, plus the
// ablations from DESIGN.md §5 and micro-benchmarks of the substrates.
//
// Figure benches share one lazily-collected scaled-down dataset (collected
// once per process; collection itself is benchmarked by BenchmarkCollect
// and BenchmarkEpoch). Each figure bench then measures regenerating that
// figure's analysis, reporting the headline statistic via b.Log on demand.
//
//	go test -bench=. -benchmem
package tcppred_test

import (
	"sync"
	"testing"

	"repro/internal/availbw"
	"repro/internal/experiments"
	"repro/internal/iperf"
	"repro/internal/netem"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/tcpmodel"
	"repro/internal/tcpsim"
	"repro/internal/testbed"
)

var (
	benchOnce sync.Once
	benchDS   *testbed.Dataset
	benchDS2  *testbed.Dataset
)

// benchConfig is a small campaign: enough epochs for the analyses to be
// non-trivial while keeping the one-off collection around ten seconds.
func benchConfig(seed int64) testbed.RunConfig {
	return testbed.RunConfig{
		Seed: seed,
		Catalog: testbed.CatalogConfig{
			Seed:      seed + 7777,
			NumPaths:  6,
			NumDSL:    2,
			NumTrans:  1,
			MinCapBps: 3e6,
			MaxCapBps: 12e6,
		},
		TracesPerPath:    1,
		EpochsPerTrace:   15,
		PingDuration:     15,
		TransferSec:      12,
		EpochGap:         5,
		SmallWindowBytes: 20 * 1024,
		SmallTransferSec: 8,
		Pathload:         availbw.Config{StreamLength: 60, StreamsPerRate: 1, MaxIterations: 8},
	}
}

func dataset(b *testing.B) *testbed.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchDS = collect(b, benchConfig(1))
		cfg2 := benchConfig(2)
		cfg2.TransferSec = 24
		cfg2.Checkpoints = []float64{6, 12}
		benchDS2 = collect(b, cfg2)
	})
	return benchDS
}

func benchFigure(b *testing.B, fn func(ds *testbed.Dataset) experiments.Result) {
	ds := dataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := fn(ds)
		if len(res.Tables) == 0 {
			b.Fatal("figure produced no tables")
		}
	}
}

// BenchmarkEpoch measures one full Fig.-1 measurement epoch (pathload +
// ping window + bulk transfer + window-limited transfer) on a fresh path.
func BenchmarkEpoch(b *testing.B) {
	cfg := benchConfig(1)
	cfg.EpochsPerTrace = 1
	cfg.Catalog.NumPaths = 1
	cfg.Catalog.NumDSL = 0
	cfg.Catalog.NumTrans = 0
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		ds := collect(b, cfg)
		if ds.Epochs() != 1 {
			b.Fatal("epoch did not run")
		}
	}
}

// BenchmarkCollect measures a whole small campaign.
func BenchmarkCollect(b *testing.B) {
	cfg := benchConfig(1)
	cfg.Catalog.NumPaths = 2
	cfg.Catalog.NumDSL = 1
	cfg.Catalog.NumTrans = 0
	cfg.EpochsPerTrace = 3
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		collect(b, cfg)
	}
}

// One bench per paper figure (Fig. 1 is the epoch itself, above).

func BenchmarkFig2FBErrorCDF(b *testing.B)   { benchFigure(b, experiments.Fig2) }
func BenchmarkFig3LoadIncrease(b *testing.B) { benchFigure(b, experiments.Fig3) }
func BenchmarkFig4RelRTT(b *testing.B)       { benchFigure(b, experiments.Fig4) }
func BenchmarkFig5RelLoss(b *testing.B)      { benchFigure(b, experiments.Fig5) }
func BenchmarkFig6DuringFlow(b *testing.B)   { benchFigure(b, experiments.Fig6) }
func BenchmarkFig7PerPath(b *testing.B)      { benchFigure(b, experiments.Fig7) }
func BenchmarkFig8ThroughputVsError(b *testing.B) {
	benchFigure(b, experiments.Fig8)
}
func BenchmarkFig9LossVsError(b *testing.B) { benchFigure(b, experiments.Fig9) }
func BenchmarkFig10RTTVsError(b *testing.B) { benchFigure(b, experiments.Fig10) }

func BenchmarkFig11TransferLength(b *testing.B) {
	dataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig11(benchDS2, []float64{6, 12}, 24)
		if len(res.Tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkFig12WindowLimitedFB(b *testing.B) { benchFigure(b, experiments.Fig12) }
func BenchmarkFig13RevisedPFTK(b *testing.B)     { benchFigure(b, experiments.Fig13) }
func BenchmarkFig14SmoothedInputs(b *testing.B)  { benchFigure(b, experiments.Fig14) }

func BenchmarkFig15Pathologies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig15()
		if len(res.Tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkFig16MA(b *testing.B) { benchFigure(b, experiments.Fig16) }
func BenchmarkFig17HW(b *testing.B) { benchFigure(b, experiments.Fig17) }
func BenchmarkFig18LSOSensitivity(b *testing.B) {
	benchFigure(b, experiments.Fig18)
}
func BenchmarkFig19FBvsHB(b *testing.B) { benchFigure(b, experiments.Fig19) }
func BenchmarkFig20CoV(b *testing.B)    { benchFigure(b, experiments.Fig20) }
func BenchmarkFig21PathClasses(b *testing.B) {
	benchFigure(b, experiments.Fig21)
}
func BenchmarkFig22WindowLimitedHB(b *testing.B) { benchFigure(b, experiments.Fig22) }
func BenchmarkFig23Interval(b *testing.B) {
	benchFigure(b, func(ds *testbed.Dataset) experiments.Result {
		return experiments.Fig23(ds, 1)
	})
}

// Ablation benches (DESIGN.md §5).

func BenchmarkAblationPFTKCongestionEvents(b *testing.B) {
	benchFigure(b, experiments.AblationCongestionEvents)
}
func BenchmarkAblationAvailBwBranch(b *testing.B) {
	benchFigure(b, experiments.AblationAvailBw)
}
func BenchmarkAblationLSOComponents(b *testing.B) {
	benchFigure(b, experiments.AblationLSOComponents)
}
func BenchmarkAblationDelayedACK(b *testing.B) {
	benchFigure(b, experiments.AblationDelayedACK)
}
func BenchmarkAblationHistoryLength(b *testing.B) {
	benchFigure(b, experiments.AblationHistoryLength)
}
func BenchmarkSummaryTable(b *testing.B) {
	benchFigure(b, experiments.SummaryTable)
}

// Substrate micro-benchmarks.

// BenchmarkEngineEvents measures raw event throughput of the simulator.
func BenchmarkEngineEvents(b *testing.B) {
	eng := sim.NewEngine()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			eng.Schedule(0.001, fn)
		}
	}
	eng.Schedule(0.001, fn)
	b.ResetTimer()
	eng.Run()
}

// BenchmarkEngineSchedCancel measures schedule+cancel churn — the TCP RTO
// re-arm pattern, where nearly every scheduled timer is cancelled before
// it fires. It exercises the free list and the heap's dead-entry handling.
func BenchmarkEngineSchedCancel(b *testing.B) {
	eng := sim.NewEngine()
	var rto sim.Timer
	n := 0
	var fn func()
	fn = func() {
		n++
		rto.Cancel()
		rto = eng.Schedule(10, func() {})
		if n < b.N {
			eng.Schedule(0.001, fn)
		}
	}
	eng.Schedule(0.001, fn)
	b.ResetTimer()
	eng.RunUntil(float64(b.N) * 0.001)
	b.StopTimer()
	rto.Cancel()
	eng.Run()
}

// BenchmarkPacketPath measures one sender→queue→demux round trip through a
// pooled path: acquire a packet, push it across a hop, and recycle it at
// the far endpoint's default sink.
func BenchmarkPacketPath(b *testing.B) {
	eng := sim.NewEngine()
	path := netem.NewPath(eng, sim.NewRNG(1), netem.PathSpec{
		Name: "bench",
		Forward: []netem.Hop{
			{CapacityBps: 1e12, PropDelay: 0, BufferBytes: 1 << 30},
		},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := path.A.NewPacket()
		pkt.Flow = 1
		pkt.Kind = netem.KindData
		pkt.Size = 1500
		path.A.Send(pkt)
		eng.Run()
	}
}

// BenchmarkQueueForwarding measures packet forwarding through one queue.
// Packets come from a pool the sink refills, so the benchmark itself
// allocates nothing; netem's TestPathForwardingAllocFree holds this queue
// at 0 allocs/op.
func BenchmarkQueueForwarding(b *testing.B) {
	eng := sim.NewEngine()
	pool := &netem.PacketPool{}
	q := netem.NewQueue(eng, sim.NewRNG(1), 1e12, 0, 1<<30, netem.ReceiverFunc(pool.Put))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := pool.Get()
		pkt.Size = 1500
		q.Receive(pkt)
		eng.Run()
	}
}

// BenchmarkTCPTransfer measures simulating a 1 MB transfer end to end.
func BenchmarkTCPTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		rng := sim.NewRNG(int64(i + 1))
		path := netem.NewPath(eng, rng, netem.PathSpec{
			Name: "bench",
			Forward: []netem.Hop{
				{CapacityBps: 20e6, PropDelay: 0.02, BufferBytes: 96 * 1500},
			},
		})
		rep := iperf.RunBytes(eng, path, 1, 1<<20, 60, tcpsim.Config{})
		if rep.BytesAcked < 1<<20 {
			b.Fatal("transfer incomplete")
		}
	}
}

// BenchmarkPFTK measures one formula evaluation.
func BenchmarkPFTK(b *testing.B) {
	p := tcpmodel.Params{MSS: 1460, RTT: 0.08, Loss: 0.01, B: 2, RTO: 1, Wmax: 718}
	for i := 0; i < b.N; i++ {
		if tcpmodel.PFTK(p) <= 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkHWLSOObserve measures one HB observation including the LSO
// re-scan, the predictor's hot path.
func BenchmarkHWLSOObserve(b *testing.B) {
	p := predict.NewLSO(predict.NewHoltWinters(0.8, 0.2), predict.DefaultLSOConfig())
	rng := sim.NewRNG(1)
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.Normal(5e6, 5e5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(vals[i%len(vals)])
	}
}

// BenchmarkRegressionObserve measures one training step of the online
// least-squares family — the decayed normal-equation update plus the
// history-ring push — with fresh features installed per observation, the
// serving layer's measure→observe hot path. Steady state must not
// allocate: the normal equations and rings are fixed-size arrays.
func BenchmarkRegressionObserve(b *testing.B) {
	r := predict.NewRegression(predict.RegressionConfig{})
	rng := sim.NewRNG(1)
	vals := make([]float64, 4096)
	ins := make([]predict.FBInputs, len(vals))
	for i := range vals {
		vals[i] = rng.Normal(5e6, 5e5)
		ins[i] = predict.FBInputs{
			RTT:      rng.Uniform(0.01, 0.2),
			LossRate: rng.Uniform(0, 0.01),
			AvailBw:  rng.Uniform(1e6, 50e6),
		}
	}
	for i := 0; i < 256; i++ { // warm to steady state
		r.SetFeatures(ins[i])
		r.Observe(vals[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(vals)
		r.SetFeatures(ins[j])
		r.Observe(vals[j])
	}
}

// BenchmarkECMObserve measures one training step of the empirical
// conditional method — bucket lookup plus two bounded ring pushes — with
// fresh conditions installed per observation. Steady state must not
// allocate: every reachable bucket exists after warmup.
func BenchmarkECMObserve(b *testing.B) {
	e := predict.NewECM(predict.ECMConfig{})
	rng := sim.NewRNG(2)
	vals := make([]float64, 4096)
	ins := make([]predict.FBInputs, len(vals))
	for i := range vals {
		vals[i] = rng.Normal(5e6, 5e5)
		ins[i] = predict.FBInputs{
			RTT:      rng.Uniform(0.01, 0.2),
			LossRate: rng.Uniform(0, 0.01),
			AvailBw:  rng.Uniform(1e6, 50e6),
		}
	}
	for i := 0; i < len(vals); i++ { // warm: materialize every bucket
		e.SetConditions(ins[i])
		e.Observe(vals[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(vals)
		e.SetConditions(ins[j])
		e.Observe(vals[j])
	}
}

// BenchmarkAvailBwEstimate measures one pathload-style estimation run.
func BenchmarkAvailBwEstimate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		rng := sim.NewRNG(int64(i + 1))
		path := netem.NewPath(eng, rng, netem.PathSpec{
			Name: "abw",
			Forward: []netem.Hop{
				{CapacityBps: 10e6, PropDelay: 0.02, BufferBytes: 128 * 1500},
			},
		})
		est := availbw.NewEstimator(eng, path, 3, availbw.Config{
			StreamLength: 60, StreamsPerRate: 1, MaxIterations: 8,
		})
		if r := est.Estimate(); r.Estimate <= 0 {
			b.Fatal("no estimate")
		}
	}
}

// Extension benches (paper §7 future work + related-work comparisons).

func BenchmarkExtAR(b *testing.B)     { benchFigure(b, experiments.ExtAR) }
func BenchmarkExtHybrid(b *testing.B) { benchFigure(b, experiments.ExtHybrid) }
func BenchmarkExtNWSProbes(b *testing.B) {
	benchFigure(b, experiments.ExtNWSProbes)
}
func BenchmarkExtStationarity(b *testing.B) {
	benchFigure(b, experiments.ExtStationarity)
}
func BenchmarkExtZoo(b *testing.B) { benchFigure(b, experiments.ExtZoo) }

func BenchmarkExtShortTransfers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.ExtShortTransfers(int64(i + 1))
		if len(res.Tables) == 0 {
			b.Fatal("no tables")
		}
	}
}
