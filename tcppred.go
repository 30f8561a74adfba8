// Package tcppred is the public facade of the reproduction of
// "On the predictability of large transfer TCP throughput" (He, Dovrolis,
// Ammar; SIGCOMM 2005 / Computer Networks 2007).
//
// It exposes the two predictor families the paper studies and the
// simulated wide-area testbed used to evaluate them:
//
//   - Formula-Based (FB) prediction: NewFBPredictor applies the PFTK TCP
//     throughput model to a-priori path measurements — RTT and loss rate
//     from periodic probing, and an available-bandwidth estimate for
//     lossless paths (paper Eq. 3).
//
//   - History-Based (HB) prediction: NewMovingAverage, NewEWMA and
//     NewHoltWinters forecast from previous transfer throughputs; WithLSO
//     wraps any of them with the paper's level-shift restart and outlier
//     removal heuristics.
//
// The measurement side (Measure, NewTestbedPath) lets applications collect
// the inputs on simulated paths. Full measurement campaigns run on the
// campaign runner (CollectDataset) with context cancellation, fault
// isolation and progress observers, and NewPredictionServer embeds the
// online prediction service.
//
// The facade carries only what the programs under examples/ and cmd/ and
// the root package's tests name, plus the types its functions return. The
// paper's figure set lives in cmd/ronsim and cmd/repro; the service's
// cluster, storage tiers and telemetry are run through cmd/predserverd,
// cmd/predload and cmd/predctl.
package tcppred

import (
	"context"
	"fmt"
	"io"

	"repro/internal/availbw"
	"repro/internal/campaign"
	"repro/internal/iperf"
	"repro/internal/netem"
	"repro/internal/predict"
	"repro/internal/predsvc"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/tcpmodel"
	"repro/internal/tcpsim"
	"repro/internal/testbed"
)

// PFTK selects the PFTK throughput formula (paper Eq. 3) in FBConfig.Model.
const PFTK = predict.ModelPFTK

// FBInputs are the a-priori measurements consumed by an FB prediction:
// RTT (seconds) and loss rate from periodic probing before the flow, and
// an avail-bw estimate (bits/s) for the lossless branch.
type FBInputs = predict.FBInputs

// FBPredictor predicts bulk TCP throughput from path measurements using a
// throughput formula (paper Eq. 3).
type FBPredictor = predict.FB

// FBConfig configures an FB predictor: formula, MSS, maximum window, and
// the delayed-ACK factor b.
type FBConfig = predict.FBConfig

// NewFBPredictor returns a formula-based predictor.
func NewFBPredictor(cfg FBConfig) *FBPredictor { return predict.NewFB(cfg) }

// HBPredictor is a one-step-ahead throughput forecaster fed with the
// observed throughput of successive transfers on one path.
type HBPredictor = predict.HB

// NewMovingAverage returns the n-order Moving Average predictor.
func NewMovingAverage(n int) HBPredictor { return predict.NewMA(n) }

// NewEWMA returns the exponentially weighted moving average predictor with
// weight alpha in (0, 1).
func NewEWMA(alpha float64) HBPredictor { return predict.NewEWMA(alpha) }

// NewHoltWinters returns the non-seasonal Holt-Winters predictor; the
// paper uses alpha = 0.8, beta = 0.2.
func NewHoltWinters(alpha, beta float64) HBPredictor {
	return predict.NewHoltWinters(alpha, beta)
}

// ShortTransferThroughput predicts the average throughput (bits/s) of a
// transfer of n bytes using the slow-start-aware latency model (Cardwell
// et al.; paper §4.2.7), given a-priori RTT and loss rate. Use this
// instead of an FBPredictor when the transfer is too short to neglect
// slow start.
func ShortTransferThroughput(n int64, rtt, lossRate float64, maxWindowBytes int) float64 {
	if maxWindowBytes == 0 {
		maxWindowBytes = 1 << 20
	}
	d := (n + 1459) / 1460
	p := tcpmodel.Params{
		MSS: 1460, RTT: rtt, Loss: lossRate, B: 2,
		RTO:  predict.RTO(rtt),
		Wmax: float64(maxWindowBytes) / 1460,
	}
	return tcpmodel.ShortTransferThroughput(p, d) * 8
}

// WithLSO wraps an HB predictor with the paper's level-shift restart and
// outlier removal heuristics (paper §5.2) using the default parameters.
func WithLSO(inner HBPredictor) HBPredictor {
	return predict.NewLSO(inner, predict.DefaultLSOConfig())
}

// RunConfig configures a measurement campaign on the simulated RON-style
// testbed: path catalog, traces per path, epochs per trace, parallelism,
// and an optional progress Observer.
type RunConfig = testbed.RunConfig

// Dataset is the result of a campaign: one Trace per (path, trace index),
// each a sequence of per-epoch measurement records.
type Dataset = testbed.Dataset

// Observer receives campaign lifecycle events (traces started/finished,
// epochs completed) — see NewProgressObserver.
type Observer = campaign.Observer

// DefaultCampaign returns the scaled-down default campaign configuration
// (12 paths × 2 traces × 40 epochs) for the given seed.
func DefaultCampaign(seed int64) RunConfig { return testbed.DefaultScaled(seed) }

// CollectDataset runs the campaign described by cfg under ctx. Cancelling
// the context aborts cleanly at epoch boundaries: the completed traces are
// still returned as a partial dataset alongside ctx.Err(). A trace that
// faults is isolated, not rerun (its seed would replay the same fault):
// it is reported in the returned error while the rest of the campaign
// completes.
func CollectDataset(ctx context.Context, cfg RunConfig) (*Dataset, error) {
	return testbed.CollectContext(ctx, cfg)
}

// NewProgressObserver returns an Observer that renders a live progress
// line (trace counts, epoch rate, ETA) to w; assign it to
// RunConfig.Observer.
func NewProgressObserver(w io.Writer) Observer { return campaign.NewProgress(w) }

// ServiceConfig tunes the online prediction service: registry sharding,
// LRU capacity, spilling, and the HTTP server's limits. The per-path
// predictor zoo is not configurable: every path runs the paper's
// parameters. The zero value picks sensible defaults.
type ServiceConfig = predsvc.Config

// Prediction is the service's full per-path answer: every predictor's
// forecast and rolling accuracy plus the best predictor right now.
type Prediction = predsvc.Prediction

// PredictionServer serves the registry over the HTTP JSON API
// (POST /v1/observe, POST /v1/measure, GET /v1/predict, GET /v1/stats)
// with graceful context-driven shutdown; cmd/predserverd is its daemon
// wrapper and cmd/predload its load generator.
//
// The serving path is hardened: handler panics become 500s, load past
// 1024 in-flight requests is shed with 429 + Retry-After, request headers
// must arrive within 5 s, snapshots are checksummed and retried with
// backoff, a corrupt snapshot at boot is quarantined rather than fatal, and FB forecasts whose measurements have
// aged past 30 observations are flagged stale and excluded from
// best-predictor selection.
type PredictionServer = predsvc.Server

// NewPredictionServer returns an HTTP prediction server over a fresh
// registry.
func NewPredictionServer(cfg ServiceConfig) *PredictionServer { return predsvc.NewServer(cfg) }

// PathSpec describes a simulated bidirectional network path.
type PathSpec = netem.PathSpec

// Hop is one link of a PathSpec.
type Hop = netem.Hop

// Path is a live simulated path bound to a simulation Engine.
type Path struct {
	eng  *sim.Engine
	path *netem.Path
	next netem.FlowID
}

// NewTestbedPath instantiates spec on a fresh simulation engine, with an
// optional Poisson cross-traffic load (fraction of the bottleneck
// capacity) to make measurements non-trivial.
func NewTestbedPath(spec PathSpec, crossLoad float64, seed int64) *Path {
	rng := sim.NewRNG(seed)
	eng := sim.NewEngine()
	p := netem.NewPath(eng, rng.Fork(), spec)
	if crossLoad > 0 {
		bn := p.Bottleneck()
		src := netem.NewPoissonSource(eng, rng.Fork(), 900, crossLoad*bn.CapacityBps, 1000, nil, bn)
		src.Start()
	}
	probe.NewResponder(p.B, 2)
	eng.RunUntil(2) // warm up cross traffic
	return &Path{eng: eng, path: p, next: 10}
}

// Measurement bundles the a-priori quantities of paper Table 1 for a path.
type Measurement struct {
	RTT      float64 // T̂, seconds
	LossRate float64 // p̂
	AvailBw  float64 // Â, bits/s
}

// FBInputs converts the measurement for use with an FBPredictor.
func (m Measurement) FBInputs() FBInputs {
	return FBInputs{RTT: m.RTT, LossRate: m.LossRate, AvailBw: m.AvailBw}
}

// Measure performs the paper's pre-transfer measurement on the path: a
// pathload-style avail-bw estimate followed by pingDuration seconds of
// periodic probing.
func (p *Path) Measure(pingDuration float64) Measurement {
	est := availbw.NewEstimator(p.eng, p.path, 3, availbw.Config{
		StreamLength: 80, StreamsPerRate: 1, MaxIterations: 10,
	})
	abw := est.Estimate()
	res := probe.Measure(p.eng, p.path.A, 2, probe.Config{}, pingDuration)
	return Measurement{RTT: res.MeanRTT, LossRate: res.LossRate, AvailBw: abw.Estimate}
}

// Transfer runs a bulk TCP transfer of the given duration and maximum
// window and returns the achieved throughput in bits per second.
func (p *Path) Transfer(duration float64, maxWindowBytes int) float64 {
	p.next++
	rep := iperf.Run(p.eng, p.path, p.next, iperf.Config{
		Duration: duration,
		TCP:      tcpsim.Config{MaxWindowBytes: maxWindowBytes, DelayedAck: true},
	})
	return rep.ThroughputBps
}

// TransferBytes transfers exactly n bytes and returns the throughput in
// bits per second and the transfer duration in (virtual) seconds.
func (p *Path) TransferBytes(n int64, maxWindowBytes int) (bps, seconds float64) {
	p.next++
	rep := iperf.RunBytes(p.eng, p.path, p.next, n, 3600, tcpsim.Config{
		MaxWindowBytes: maxWindowBytes, DelayedAck: true,
	})
	return rep.ThroughputBps, rep.Duration
}

// Now returns the path's virtual clock (seconds).
func (p *Path) Now() float64 { return p.eng.Now() }

// Wait advances virtual time by d seconds (ambient traffic keeps flowing).
func (p *Path) Wait(d float64) { p.eng.RunUntil(p.eng.Now() + d) }

// String describes the path.
func (p *Path) String() string {
	bn := p.path.Bottleneck()
	return fmt.Sprintf("path %s: bottleneck %.1f Mbps, base RTT %.1f ms",
		p.path.Name, bn.CapacityBps/1e6, p.path.BaseRTT(1500)*1e3)
}
