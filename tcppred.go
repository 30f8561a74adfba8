// Package tcppred is the public facade of the reproduction of
// "On the predictability of large transfer TCP throughput" (He, Dovrolis,
// Ammar; SIGCOMM 2005 / Computer Networks 2007).
//
// It exposes the two predictor families the paper studies and the
// simulated wide-area testbed used to evaluate them:
//
//   - Formula-Based (FB) prediction: NewFBPredictor applies the PFTK (or
//     Mathis / revised-PFTK) TCP throughput model to a-priori path
//     measurements — RTT and loss rate from periodic probing, and an
//     available-bandwidth estimate for lossless paths (paper Eq. 3).
//
//   - History-Based (HB) prediction: NewMovingAverage, NewEWMA and
//     NewHoltWinters forecast from previous transfer throughputs; WithLSO
//     wraps any of them with the paper's level-shift restart and outlier
//     removal heuristics.
//
// The measurement side (Measure, NewTestbedPath) lets applications collect
// the inputs on simulated paths. Full measurement campaigns run on the
// campaign runner (CollectDataset) with context cancellation, fault
// isolation and progress observers; the paper's figure set lives in
// cmd/ronsim and cmd/repro.
package tcppred

import (
	"context"
	"fmt"
	"io"

	"repro/internal/availbw"
	"repro/internal/campaign"
	"repro/internal/faultinject"
	"repro/internal/iperf"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/predsvc"
	"repro/internal/predsvc/cluster"
	"repro/internal/predsvc/store"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/tcpmodel"
	"repro/internal/tcpsim"
	"repro/internal/testbed"
)

// Model selects a TCP throughput formula for FB prediction.
type Model = predict.Model

// Supported formulas.
const (
	PFTK        = predict.ModelPFTK
	PFTKPaper   = predict.ModelPFTKPaper
	RevisedPFTK = predict.ModelRevisedPFTK
	Mathis      = predict.ModelMathis
)

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

// NewAR returns an autoregressive AR(p) predictor fitted online over a
// sliding window (an extension in the direction of the paper's ARIMA
// future work; window 0 picks a default).
func NewAR(order, window int) HBPredictor { return predict.NewAR(order, window) }

// Hybrid combines the FB formula with history: it learns the formula's
// multiplicative bias on a path from observed transfers (paper §7 future
// work). Use Predict with fresh measurements, then Observe the achieved
// throughput.
type Hybrid = predict.Hybrid

// NewHybrid returns a hybrid FB×history predictor; alpha is the EWMA
// weight of the learned bias (0 picks the default 0.5).
func NewHybrid(cfg FBConfig, alpha float64) *Hybrid {
	return predict.NewHybrid(cfg, alpha)
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
	p := tcpmodel.ShortTransferParams{
		Params: tcpmodel.Params{
			MSS: 1460, RTT: rtt, Loss: lossRate, B: 2,
			RTO:  predict.RTO(rtt),
			Wmax: float64(maxWindowBytes) / 1460,
		},
	}
	return tcpmodel.ShortTransferThroughput(p, d) * 8
}

// LSOConfig holds the level-shift (γ) and outlier (ψ) thresholds; the
// paper's values are γ = 0.3, ψ = 0.4.
type LSOConfig = predict.LSOConfig

// WithLSO wraps an HB predictor with the paper's level-shift restart and
// outlier removal heuristics (paper §5.2) using the default parameters.
func WithLSO(inner HBPredictor) HBPredictor {
	return predict.NewLSO(inner, predict.DefaultLSOConfig())
}

// WithLSOConfig is WithLSO with explicit thresholds.
func WithLSOConfig(inner HBPredictor, cfg LSOConfig) HBPredictor {
	return predict.NewLSO(inner, cfg)
}

// Quantiles is a p10/p50/p90 interval forecast of throughput (bits/s):
// the point forecast plus an uncertainty band derived from the
// predictor's recent Eq.-4 relative errors.
type Quantiles = predict.Quantiles

// QuantilePredictor is implemented by predictors that forecast an
// interval, not just a point — see WithQuantiles and NewECMPredictor.
type QuantilePredictor = predict.QuantilePredictor

// WithQuantiles wraps an HB predictor so its point forecasts carry a
// [p10,p90] interval from the empirical quantiles of its last `window`
// relative errors (0 picks the default 50).
func WithQuantiles(inner HBPredictor, window int) *predict.ResidualQuantile {
	return predict.NewResidualQuantile(inner, window)
}

// RegressionConfig configures the online feature regression predictor.
type RegressionConfig = predict.RegressionConfig

// RegressionPredictor forecasts throughput by online least-squares over
// path features (RTT, loss, avail-bw, recent history) — the
// measurement-conditioned family in the direction of Vazhkudai & Schopf.
// Call SetFeatures with fresh measurements before Predict/Observe.
type RegressionPredictor = predict.Regression

// NewRegressionPredictor returns an online feature-regression predictor.
func NewRegressionPredictor(cfg RegressionConfig) *RegressionPredictor {
	return predict.NewRegression(cfg)
}

// ECMConfig configures the empirical conditional method predictor.
type ECMConfig = predict.ECMConfig

// ECMPredictor forecasts throughput from the empirical conditional
// distribution of past throughputs whose pre-flow measurements fell in
// the same bucket; its quantiles are native, not residual-derived. Call
// SetConditions with fresh measurements before Predict/Observe.
type ECMPredictor = predict.ECM

// NewECMPredictor returns an empirical-conditional-method predictor.
func NewECMPredictor(cfg ECMConfig) *ECMPredictor { return predict.NewECM(cfg) }

// SwitcherConfig configures the stability-aware switcher: the coefficient
// of variation threshold separating stable from volatile regimes, and the
// window it is computed over.
type SwitcherConfig = predict.SwitcherConfig

// NewStabilitySwitcher returns an HB predictor that routes between a
// stable-regime and a volatile-regime inner predictor on the recent
// coefficient of variation of the throughput series (Sun et al. style).
func NewStabilitySwitcher(stable, volatile HBPredictor, cfg SwitcherConfig) HBPredictor {
	return predict.NewStabilitySwitcher(stable, volatile, cfg)
}

// RunConfig configures a measurement campaign on the simulated RON-style
// testbed: path catalog, traces per path, epochs per trace, parallelism,
// retries, and an optional progress Observer.
type RunConfig = testbed.RunConfig

// Dataset is the result of a campaign: one Trace per (path, trace index),
// each a sequence of per-epoch measurement records.
type Dataset = testbed.Dataset

// Observer receives campaign lifecycle events (traces started/finished,
// epochs completed) — see NewProgressObserver and NewJSONLObserver.
type Observer = campaign.Observer

// DefaultCampaign returns the scaled-down default campaign configuration
// (12 paths × 2 traces × 40 epochs) for the given seed.
func DefaultCampaign(seed int64) RunConfig { return testbed.DefaultScaled(seed) }

// PaperCampaign returns the paper's full-scale campaign configuration
// (35 paths × 7 traces × 150 epochs; slow).
func PaperCampaign(seed int64) RunConfig { return testbed.PaperScale(seed) }

// Congestion selects the target transfer's congestion control in a
// scenario campaign: CCReno (the paper's sender, the default), CCCubic
// (RFC 8312), or CCBBR (a model-based BBR-like sender whose throughput is
// decoupled from loss rate).
type Congestion = tcpsim.Congestion

// The supported congestion controls.
const (
	CCReno  = tcpsim.CCReno
	CCCubic = tcpsim.CCCubic
	CCBBR   = tcpsim.CCBBR
)

// ScenarioConfig controls the (sender × link) scenario-matrix campaign:
// which congestion controls, which bottleneck regimes (droptail,
// randomdrop, cellular, rwnd-limited), and how many path instances per
// cell.
type ScenarioConfig = testbed.ScenarioConfig

// ScenarioCampaign returns the scenario-matrix campaign configuration for
// the given seed: every sender in scfg crossed with every link type, each
// cell sharing a byte-identical substrate across senders so cross-sender
// comparisons isolate the congestion control. Score the collected dataset
// with `repro -only ext-cc` (or experiments.ExtCC).
func ScenarioCampaign(seed int64, scfg ScenarioConfig) RunConfig {
	return testbed.ScenarioScaled(seed, scfg)
}

// CollectDataset runs the campaign described by cfg under ctx. Cancelling
// the context aborts cleanly at epoch boundaries: the completed traces are
// still returned as a partial dataset alongside ctx.Err(). A trace that
// faults is isolated and retried with the same seed; persistent failures
// are reported in the returned error while the rest of the campaign
// completes.
func CollectDataset(ctx context.Context, cfg RunConfig) (*Dataset, error) {
	return testbed.CollectContext(ctx, cfg)
}

// NewProgressObserver returns an Observer that renders a live progress
// line (trace counts, epoch rate, ETA) to w; assign it to
// RunConfig.Observer.
func NewProgressObserver(w io.Writer) Observer { return campaign.NewProgress(w) }

// NewJSONLObserver returns an Observer that emits one JSON object per
// campaign event to w, for machine consumption.
func NewJSONLObserver(w io.Writer) Observer { return campaign.NewJSONL(w) }

// Observability is the unified telemetry bundle (span tracer + Prometheus
// metrics registry + HTTP endpoints). Assign one to RunConfig.Obs or
// ServiceConfig.Obs to instrument a campaign or a prediction server; a
// nil Observability is valid everywhere and turns instrumentation off.
type Observability = obs.Obs

// NewObservability returns a telemetry bundle retaining up to
// spanCapacity completed spans (0 picks the default). Serve its Handler
// (or call Serve) to expose /metrics, /debug/pprof/ and /debug/trace;
// WriteFiles dumps the same telemetry as offline artifacts.
func NewObservability(spanCapacity int) *Observability { return obs.New(spanCapacity) }

// ServiceConfig tunes the online prediction service: registry sharding and
// LRU capacity, the per-path HB ensemble, and the rolling accuracy
// windows. The zero value picks the paper-informed defaults.
type ServiceConfig = predsvc.Config

// PathRegistry is the path → predictor-session façade at the heart of the
// serving layer, backed by a SessionStore — in-memory sharded LRU by
// default, or a two-tier disk-spill store when ServiceConfig.SpillDir is
// set.
type PathRegistry = predsvc.Registry

// SessionStore is the storage seam under the registry: any implementation
// of the store.Store contract (get-or-create, lookup, LRU range,
// evict-notify, tier stats). The package ships MemStore (power-of-two
// sharded in-memory LRU) and SpillStore (hot tier + append-only checksummed
// spill log with fault-back on access).
type SessionStore = store.Store

// StoreTierStats is one store's occupancy and traffic counters per tier;
// exposed at /v1/stats and as predsvc_store_* Prometheus gauges.
type StoreTierStats = store.TierStats

// ClusterMap routes paths to nodes by rendezvous (highest-random-weight)
// hashing: every client agrees on each path's owner without coordination,
// and removing a node only remaps the paths it owned. cmd/predload's
// -cluster flag uses it for client-side routing.
type ClusterMap = cluster.Map

// NewClusterMap builds a rendezvous-hash router over the given node names
// (base URLs, host:ports — any stable identifiers).
func NewClusterMap(nodes ...string) *ClusterMap { return cluster.New(nodes...) }

// ClusterClient routes requests over a ClusterMap and retries through the
// failures a live cluster throws at it — 429 load shedding, 5xx responses,
// and connection errors while a node restarts (it parks on /readyz probes
// until the node is back, then replays). predload and predctl are built on
// it; embedders get the same ride-out-the-restart behavior.
type ClusterClient = cluster.Client

// ClusterClientConfig tunes a ClusterClient: node set, backoff bounds,
// retry deadline (the window a node restart must fit into), and the
// /readyz probing cadence.
type ClusterClientConfig = cluster.ClientConfig

// NewClusterClient builds a retrying cluster client over the given nodes.
func NewClusterClient(cfg ClusterClientConfig) *ClusterClient { return cluster.NewClient(cfg) }

// RebalanceConfig drives one cluster membership change (see Rebalance).
type RebalanceConfig = predsvc.RebalanceConfig

// RebalanceReport summarizes a Rebalance run: sessions moved, imported,
// skipped (already present — the signature of a retried pass), dropped,
// and how many failed passes were retried.
type RebalanceReport = predsvc.RebalanceReport

// Rebalance resizes a cluster from one membership to another using the
// session-handoff protocol (DESIGN.md §14): every node of the old
// membership exports the sessions the new rendezvous map assigns
// elsewhere, each session is imported into its new owner last-writer-wins
// on observation count, and sources drop their copies only after every
// import succeeded — so a kill anywhere mid-transfer loses nothing and a
// retried run converges. cmd/predctl's rebalance subcommand wraps it.
func Rebalance(ctx context.Context, cfg RebalanceConfig) (*RebalanceReport, error) {
	return predsvc.Rebalance(ctx, cfg)
}

// PredictorSession is the goroutine-safe per-path predictor state: the HB
// ensemble (MA/EWMA/Holt-Winters, LSO-wrapped by default), the FB
// predictor with its latest measurements, and rolling Eq. 4/RMSRE
// accuracy statistics.
type PredictorSession = predsvc.Session

// Prediction is the service's full per-path answer: every predictor's
// forecast and rolling accuracy plus the best predictor right now.
type Prediction = predsvc.Prediction

// PredictionServer serves the registry over the HTTP JSON API
// (POST /v1/observe, POST /v1/measure, GET /v1/predict, GET /v1/stats)
// with graceful context-driven shutdown; cmd/predserverd is its daemon
// wrapper and cmd/predload its load generator.
//
// The serving path is hardened: handler panics become 500s, load past
// ServiceConfig.MaxInFlight is shed with 429 + Retry-After, snapshots are
// checksummed and retried with backoff, a corrupt snapshot at boot is
// quarantined rather than fatal, and FB forecasts whose measurements have
// aged past ServiceConfig.Ensemble.StaleAfter observations are flagged stale and
// excluded from best-predictor selection.
type PredictionServer = predsvc.Server

// NewPathRegistry returns a sharded LRU path registry.
func NewPathRegistry(cfg ServiceConfig) *PathRegistry { return predsvc.NewRegistry(cfg) }

// NewPredictionServer returns an HTTP prediction server over a fresh
// registry.
func NewPredictionServer(cfg ServiceConfig) *PredictionServer { return predsvc.NewServer(cfg) }

// FaultInjector is a deterministic, seedable fault-injection plan: named
// sites in the serving and snapshot paths consult it and fail, delay, or
// corrupt according to its rules. Assign one to ServiceConfig.Faults for
// chaos testing; a nil injector is inert and costs one predictable branch
// per site.
type FaultInjector = faultinject.Injector

// FaultRule describes when one fault-injection site fires: every Nth call,
// with a probability, after a warm-up, a limited number of times.
type FaultRule = faultinject.Rule

// NewFaultInjector builds a deterministic injector from seed and rules.
// For a fixed seed and rule set the total number of injected faults over N
// calls is independent of goroutine interleaving.
func NewFaultInjector(seed int64, rules ...FaultRule) *FaultInjector {
	return faultinject.New(seed, rules...)
}

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
