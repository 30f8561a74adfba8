package testbed

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/availbw"
	"repro/internal/campaign"
	"repro/internal/iperf"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// Seed-stream identifiers for sim.DeriveSeed. Keeping them distinct (and
// documented) guarantees the catalog's RNG stream can never collide with
// a trace's, which the old additive scheme (seed + 7777, seed + 10007·p +
// 101·t) did not: path 0's trace 77 shared the catalog seed.
const (
	seedStreamCatalog   = 0xCA7A106<<32 | 1 // primary-set path catalog
	seedStreamSecondSet = 0xCA7A106<<32 | 2 // Mar-2006-style second catalog
)

// traceSeedStream returns the DeriveSeed stream for one (path, trace)
// slot. Streams are disjoint from the catalog streams above because the
// top 32 bits can never equal 0xCA7A106 for realistic path counts.
func traceSeedStream(pathIdx, traceIdx int) uint64 {
	return uint64(pathIdx+1)<<20 | uint64(traceIdx)
}

// Flow IDs used on every testbed path.
const (
	flowTransfer netem.FlowID = 1
	flowProbe    netem.FlowID = 2
	flowChirp    netem.FlowID = 3
	flowSmall    netem.FlowID = 4
	flowElastic0 netem.FlowID = 100
	flowCross0   netem.FlowID = 200
)

// largeWindowBytes is W of the target transfer, the paper's 1 MB; a
// scenario path may set its own (PathConfig.TargetWindowBytes).
const largeWindowBytes = 1 << 20

// RunConfig controls a measurement campaign. Zero fields take the paper's
// values via defaults().
type RunConfig struct {
	Seed    int64
	Catalog CatalogConfig
	// Paths, when non-empty, replaces the generated catalog: the
	// campaign runs exactly these paths (the scenario matrix uses this).
	Paths          []PathConfig
	TracesPerPath  int     // paper: 7
	EpochsPerTrace int     // paper: 150
	PingDuration   float64 // paper: 60 s
	TransferSec    float64 // paper: 50 s (120 s in the second set)
	EpochGap       float64 // idle between epochs, seconds

	SmallWindowBytes int // W of the companion transfer (paper: 20 KB); 0 disables
	SmallTransferSec float64

	Checkpoints []float64 // prefix durations for Fig. 11 (e.g. 30, 60)

	Pathload availbw.Config

	Parallelism int // worker goroutines; 0 = GOMAXPROCS

	// Retries is how many times a faulted trace (recovered panic) is
	// re-run with the same seed before being reported as failed.
	// 0 means the default of 1; negative disables retries.
	Retries int

	// Observer receives campaign progress callbacks (nil: none). It is
	// execution instrumentation, not part of the campaign's identity:
	// results are byte-identical whatever observer is attached.
	Observer campaign.Observer

	// Obs, when non-nil, receives spans and metrics from the campaign:
	// a campaign.Telemetry observer is attached automatically, every
	// trace job records an epoch/phase span tree (pathload, ping,
	// transfer, small, gap — the Fig.-1 timeline), the engines' sim.run
	// segments nest under those phases, and packet-pool recycling is
	// exported as testbed_packets_* counters. Like Observer it never
	// changes results.
	Obs *obs.Obs
}

// Defaults returns c with every zero field set to the value a campaign
// runs with: 7 traces of 150 epochs per path, 60 s of ping, a 50 s
// transfer and a 20 s gap, the companion small-window transfer as long as
// the target one, a 1 MiB large window, GOMAXPROCS workers and one retry.
func (c RunConfig) Defaults() RunConfig {
	if c.TracesPerPath == 0 {
		c.TracesPerPath = 7
	}
	if c.EpochsPerTrace == 0 {
		c.EpochsPerTrace = 150
	}
	if c.PingDuration == 0 {
		c.PingDuration = 60
	}
	if c.TransferSec == 0 {
		c.TransferSec = 50
	}
	if c.EpochGap == 0 {
		c.EpochGap = 20
	}
	if c.SmallTransferSec == 0 {
		c.SmallTransferSec = c.TransferSec
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Retries == 0 {
		c.Retries = 1
	}
	// Horizon for load processes: a bit beyond the full trace duration.
	perEpoch := 25 + c.PingDuration + c.TransferSec + c.EpochGap
	if c.SmallWindowBytes > 0 {
		perEpoch += c.SmallTransferSec + 2
	}
	if c.Catalog.horizon == 0 {
		c.Catalog.horizon = perEpoch*float64(c.EpochsPerTrace) + 600
	}
	if c.Catalog.Seed == 0 {
		c.Catalog.Seed = sim.DeriveSeed(c.Seed, seedStreamCatalog)
	}
	return c
}

// DefaultScaled returns a configuration sized to run a meaningful dataset
// quickly: fewer, slower paths, shorter phases, fewer epochs.
func DefaultScaled(seed int64) RunConfig {
	return RunConfig{
		Seed: seed,
		Catalog: CatalogConfig{
			NumPaths:  12,
			NumDSL:    3,
			NumTrans:  2,
			NumKorea:  1,
			MinCapBps: 3e6,
			MaxCapBps: 20e6,
		},
		TracesPerPath:    2,
		EpochsPerTrace:   40,
		PingDuration:     30,
		TransferSec:      30,
		EpochGap:         8,
		SmallWindowBytes: 20 * 1024,
		SmallTransferSec: 30,
		Pathload: availbw.Config{
			StreamLength:   80,
			StreamsPerRate: 1,
			MaxIterations:  10,
		},
	}
}

// PaperScale returns the paper's full-scale May-2004 configuration:
// 35 paths × 7 traces × 150 epochs, 60 s ping, 50 s transfers, plus the
// 20 KB window-limited transfer.
func PaperScale(seed int64) RunConfig {
	return RunConfig{
		Seed:             seed,
		SmallWindowBytes: 20 * 1024,
	}
}

// SecondSet returns the Mar-2006-style configuration: 24 fresh paths, 120 s
// transfers with 30/60 s checkpoints, no DSL except one, used for Fig. 11.
func SecondSet(seed int64, scaled bool) RunConfig {
	cfg := RunConfig{
		Seed: seed,
		Catalog: CatalogConfig{
			Seed:     sim.DeriveSeed(seed, seedStreamSecondSet),
			NumPaths: 24,
			NumDSL:   1,
			NumTrans: 0,
			NumKorea: 0,
		},
		TransferSec: 120,
		Checkpoints: []float64{30, 60},
	}
	if scaled {
		cfg.Catalog.NumPaths = 6
		cfg.Catalog.MinCapBps = 3e6
		cfg.Catalog.MaxCapBps = 20e6
		cfg.TracesPerPath = 1
		cfg.EpochsPerTrace = 12
		cfg.PingDuration = 30
		cfg.TransferSec = 60
		cfg.Checkpoints = []float64{15, 30}
		cfg.EpochGap = 8
		cfg.Pathload = availbw.Config{StreamLength: 80, StreamsPerRate: 1, MaxIterations: 10}
	}
	return cfg
}

// testHookPreEpoch, when non-nil, runs before every epoch. Tests use it
// to inject faults (panics) and cancellations into specific traces.
var testHookPreEpoch func(job campaign.Job, epoch int)

// CollectContext runs the campaign and materializes it: CollectStream
// with a sink that appends every delivered trace to the dataset.
//
// Equal configurations yield byte-identical datasets whatever the
// Parallelism. Cancelling ctx stops the campaign at the next epoch
// boundary of each running trace; completed traces are returned as a
// partial dataset alongside ctx.Err(). Traces that failed after all
// retries are omitted from the dataset and reported joined into the
// returned error.
func CollectContext(ctx context.Context, cfg RunConfig) (*Dataset, error) {
	ds := &Dataset{Label: cfg.DatasetLabel()}
	err := CollectStream(ctx, cfg, func(tr Trace) error {
		ds.Traces = append(ds.Traces, tr)
		return nil
	})
	return ds, err
}

// CollectStream runs the campaign on the campaign runner and streams
// each completed trace to sink in job order: trace jobs execute in
// parallel (each owns a private engine), faults in one trace are
// isolated and retried with the same seed, and progress flows to
// cfg.Observer. At any moment only the in-flight traces (one per worker,
// plus the reorder buffer) are in memory, so a 10k-path campaign runs in
// constant RSS when the sink writes traces straight to a traceio.Writer.
// The stream is order-deterministic: equal configs feed the sink the
// identical trace sequence regardless of Parallelism.
//
// A sink error cancels the campaign and is returned. Traces that failed
// after all retries are skipped (never handed to the sink) and reported
// joined in the returned error; cancelling ctx returns ctx.Err() after
// the traces already completed have been delivered.
func CollectStream(ctx context.Context, cfg RunConfig, sink func(Trace) error) error {
	cfg = cfg.Defaults()
	jobs, pcs := campaignJobs(cfg)
	hooks := newObsHooks(cfg.Obs)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Both are written under the runner's delivery lock and read after Run.
	var errs []error // traces that failed after all retries
	var sinkErr error
	runner := &campaign.Runner[Trace]{
		Parallelism: cfg.Parallelism,
		Retries:     max(cfg.Retries, 0),
		Observer:    hooks.observer(cfg.Observer),
		Sink: func(res campaign.Result[Trace]) {
			switch {
			case res.Err != nil:
				if res.Attempts > 0 && !isContextErr(res.Err) {
					errs = append(errs, res.Err)
				}
			case sinkErr == nil:
				if err := sink(res.Value); err != nil {
					sinkErr = err
					cancel()
				}
			}
		},
	}
	ctxErr := runner.Run(ctx, jobs, func(ctx context.Context, job campaign.Job, rep *campaign.Reporter) (Trace, error) {
		return runTrace(ctx, cfg, pcs[job.Index], job, rep, hooks)
	})

	switch {
	case sinkErr != nil:
		// The context error is our own cancel; the sink failure is the cause.
		errs = append(errs, sinkErr)
	case ctxErr != nil:
		errs = append(errs, ctxErr)
	}
	return errors.Join(errs...)
}

// DatasetLabel is the label CollectContext stamps on the dataset for this
// config, exposed so streaming writers can put it in their header.
func (cfg RunConfig) DatasetLabel() string { return fmt.Sprintf("seed%d", cfg.Seed) }

// campaignJobs expands the config into the campaign's job list plus the
// per-job path configs, in the fixed order the determinism contract
// keys on.
func campaignJobs(cfg RunConfig) ([]campaign.Job, []PathConfig) {
	paths := cfg.Paths
	if len(paths) == 0 {
		paths = Catalog(cfg.Catalog)
	}
	jobs := make([]campaign.Job, 0, len(paths)*cfg.TracesPerPath)
	pcs := make([]PathConfig, 0, cap(jobs))
	for p, pc := range paths {
		for t := 0; t < cfg.TracesPerPath; t++ {
			jobs = append(jobs, campaign.Job{
				Index:  len(jobs),
				Path:   pc.Name,
				Trace:  t,
				Seed:   sim.DeriveSeed(cfg.Seed, traceSeedStream(p, t)),
				Epochs: cfg.EpochsPerTrace,
			})
			pcs = append(pcs, pc)
		}
	}
	return jobs, pcs
}

// obsHooks bundles the testbed's observability wiring: the campaign
// telemetry observer (spans + campaign_* metrics) and the packet-pool
// counters. A nil *obsHooks — the Obs-off state — is safe everywhere.
type obsHooks struct {
	tel    *campaign.Telemetry
	pooled *obs.Counter // pool recycles (Puts) summed over traces
	leaked *obs.Counter // packets drawn but never returned
	allocs *obs.Counter // Gets that fell through to the allocator
}

func newObsHooks(o *obs.Obs) *obsHooks {
	if o == nil {
		return nil
	}
	m := o.M()
	return &obsHooks{
		tel:    campaign.NewTelemetry(o),
		pooled: m.Counter("testbed_packets_pooled_total", "packets recycled through path pools"),
		leaked: m.Counter("testbed_packets_leaked_total", "packets drawn from pools and never returned"),
		allocs: m.Counter("testbed_packets_allocated_total", "pool misses that hit the allocator"),
	}
}

// observer merges the user's observer with the telemetry one.
func (h *obsHooks) observer(user campaign.Observer) campaign.Observer {
	if h == nil {
		return user
	}
	if user == nil {
		return h.tel
	}
	return campaign.MultiObserver{user, h.tel}
}

// jobSpan returns the open campaign span for the job, or nil.
func (h *obsHooks) jobSpan(index int) *obs.Span {
	if h == nil {
		return nil
	}
	return h.tel.JobSpan(index)
}

// tracePool folds one finished trace's pool counters into the metrics.
func (h *obsHooks) tracePool(p *netem.PacketPool) {
	if h == nil {
		return
	}
	h.pooled.Add(uint64(p.Puts))
	h.allocs.Add(uint64(p.News))
	if outstanding := p.Gets - p.Puts; outstanding > 0 {
		h.leaked.Add(uint64(outstanding))
	}
}

// runTrace simulates one trace: builds a fresh engine, path and ambient
// traffic, then executes EpochsPerTrace measurement epochs back-to-back.
// ctx is checked at every epoch boundary, so cancellation aborts the
// trace cleanly mid-run without corrupting other traces.
func runTrace(ctx context.Context, cfg RunConfig, pc PathConfig, job campaign.Job, rep *campaign.Reporter, hooks *obsHooks) (Trace, error) {
	rng := sim.NewRNG(job.Seed)
	eng := sim.NewEngine()
	path := netem.NewPath(eng, rng.Fork(), pc.Spec)
	env := startAmbient(eng, rng, path, pc, cfg)

	probe.NewResponder(path.B, flowProbe)
	prober := probe.NewProber(eng, path.A, flowProbe)

	// The campaign span for this job (nil when telemetry is off) roots
	// the trace's epoch/phase tree; the engine hangs its sim.run
	// segments off whichever phase span is current.
	jobSpan := hooks.jobSpan(job.Index)
	defer eng.SetSpan(nil)

	// Let ambient traffic reach steady state before measuring.
	warm := jobSpan.Child("warmup")
	eng.SetSpan(warm)
	eng.RunUntil(eng.Now() + 5)
	warm.End()
	prober.Start()

	tr := Trace{Path: pc.Name, Class: string(pc.Class), Index: job.Trace}
	for ep := 0; ep < cfg.EpochsPerTrace; ep++ {
		if err := ctx.Err(); err != nil {
			return tr, err
		}
		if testHookPreEpoch != nil {
			testHookPreEpoch(job, ep)
		}
		mark := eng.Processed()
		esp := jobSpan.Child("epoch")
		rec := runEpoch(cfg, pc, eng, path, prober, env, esp)
		rec.Path = pc.Name
		rec.Class = string(pc.Class)
		rec.Trace = job.Trace
		rec.Epoch = ep
		tr.Records = append(tr.Records, rec)
		events := eng.ProcessedSince(mark)
		esp.AddCount(int64(events))
		esp.End()
		rep.Epoch(ep, eng.Now(), events)
	}
	prober.Stop()
	env.stop()
	hooks.tracePool(path.Pool)
	return tr, nil
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ambient bundles a trace's cross-traffic machinery.
type ambient struct {
	sources []netem.Source
	elastic []*tcpsim.Connection
	load    *netem.LoadProcess
	openBps float64 // configured average open-loop rate at load 1.0
}

func (a *ambient) stop() {
	for _, s := range a.sources {
		s.Stop()
	}
	for _, c := range a.elastic {
		c.Stop()
	}
}

func startAmbient(eng *sim.Engine, rng *sim.RNG, path *netem.Path, pc PathConfig, cfg RunConfig) *ambient {
	env := &ambient{}
	bn := path.Bottleneck()
	env.load = netem.GenerateLoad(rng.Fork(), pc.LoadCfg)
	env.openBps = pc.BaseUtilization * bn.CapacityBps

	if env.openBps > 0 {
		paretoBps := env.openBps * pc.ParetoShare
		poissonBps := env.openBps - paretoBps
		if poissonBps > 0 {
			src := netem.NewPoissonSource(eng, rng.Fork(), flowCross0, poissonBps, 1000, env.load, bn)
			src.Start()
			env.sources = append(env.sources, src)
		}
		if paretoBps > 0 {
			// Several independent ON/OFF sources: the aggregate stays
			// bursty at many timescales without one source being able to
			// swamp the bottleneck single-handedly.
			const nSrc = 3
			meanOn, meanOff := 0.4, 0.6
			for k := 0; k < nSrc; k++ {
				share := paretoBps / nSrc
				peak := share * (meanOn + meanOff) / meanOn
				src := netem.NewParetoOnOffSource(eng, rng.Fork(), flowCross0+1+netem.FlowID(k), peak, 1000, meanOn, meanOff, 1.5, env.load, bn)
				src.Start()
				env.sources = append(env.sources, src)
			}
		}
	}

	for j := 0; j < pc.ElasticFlows; j++ {
		extra := 0.0
		if j < len(pc.ElasticRTTs) {
			extra = pc.ElasticRTTs[j]
		}
		// Windows vary per flow so the elastic herd mixes small and large
		// competitors. The RNG draw stays in the ambient stream so the
		// trace remains reproducible.
		win := (32 + rng.Intn(96)) * 1024
		conn := tcpsim.DialWithExtraDelay(eng, path, flowElastic0+netem.FlowID(j), extra, tcpsim.Config{
			MaxWindowBytes: win,
			DelayedAck:     true,
		})
		// Stagger starts; some flows are active only for a window of the
		// trace, creating natural level shifts in the throughput series.
		startAt := rng.Uniform(0, 30)
		eng.Schedule(startAt, conn.Sender.Start)
		if rng.Bool(0.3) && pc.LoadCfg.Horizon > 0 {
			stopAt := rng.Uniform(0.3, 0.9) * pc.LoadCfg.Horizon
			eng.At(stopAt, conn.Sender.Stop)
		}
		env.elastic = append(env.elastic, conn)
	}
	return env
}

// runEpoch executes one Fig.-1 epoch and returns its record. esp, when
// non-nil, is the epoch's span; each measurement phase opens a child
// under it and points the engine at it, so the exported trace shows the
// epoch timeline exactly as Fig. 1 draws it.
func runEpoch(cfg RunConfig, pc PathConfig, eng *sim.Engine, path *netem.Path, prober *probe.Prober, env *ambient, esp *obs.Span) EpochRecord {
	phase := func(name string) *obs.Span {
		sp := esp.Child(name)
		eng.SetSpan(sp)
		return sp
	}
	rec := EpochRecord{StartTime: eng.Now()}
	bn := path.Bottleneck()

	// Phase 1: pathload.
	sp := phase("pathload")
	est := availbw.NewEstimator(eng, path, flowChirp, cfg.Pathload)
	abw := est.Estimate()
	rec.AvailBw = abw.Estimate
	sp.End()

	// Phase 2: 60 s of ping → (T̂, p̂); also the ground-truth avail-bw
	// window (bottleneck capacity minus non-probe arrivals).
	sp = phase("ping")
	prober.Window() // discard samples accumulated since the last epoch
	statsBefore := bn.Stats()
	tPingStart := eng.Now()
	eng.RunUntil(eng.Now() + cfg.PingDuration)
	pre := prober.Window()
	rec.PreRTT = pre.MeanRTT
	rec.PreLoss = pre.LossRate
	statsAfter := bn.Stats()
	dt := eng.Now() - tPingStart
	if dt > 0 {
		crossBits := float64(statsAfter.BytesIn-statsBefore.BytesIn) * 8
		probeBits := float64(pre.Sent * 41 * 8)
		avail := bn.CapacityBps - (crossBits-probeBits)/dt
		if avail < 0 {
			avail = 0
		}
		rec.AvailBwTrue = avail
	}
	sp.End()

	// Phase 3: the target transfer, with probing continuing → (T̃, p̃).
	// Scenario paths can override the sender's congestion control and
	// advertised window; the paper's catalog leaves both at the defaults.
	sp = phase("transfer")
	window := largeWindowBytes
	if pc.TargetWindowBytes > 0 {
		window = pc.TargetWindowBytes
	}
	rep := iperf.Run(eng, path, flowTransfer, iperf.Config{
		Duration:    cfg.TransferSec,
		TCP:         tcpsim.Config{MaxWindowBytes: window, DelayedAck: true, Congestion: pc.CC},
		Checkpoints: cfg.Checkpoints,
	})
	dur := prober.Window()
	rec.DurRTT = dur.MeanRTT
	rec.DurLoss = dur.LossRate
	rec.Throughput = rep.ThroughputBps
	rec.FlowRTT = rep.FlowRTT
	rec.FlowLoss = rep.FlowLossRate
	rec.FlowEventRate = rep.FlowEventRate
	rec.Retransmits = rep.Retransmits
	rec.Timeouts = rep.Timeouts
	rec.LossEvents = rep.LossEvents
	rec.SegmentsSent = rep.SegmentsSent
	rec.Checkpoints = rep.Checkpoints
	if pc.CC != "" || pc.LinkType != "" {
		rec.CC = string(rep.CC)
		rec.Link = string(pc.LinkType)
		rec.PacingRate = rep.PacingRateBps
		rec.DeliveryRate = rep.DeliveryRateBps
		rec.RecoveryEpisodes = rep.RecoveryEpisodes
	}
	sp.End()

	// Phase 4: the window-limited companion transfer.
	if cfg.SmallWindowBytes > 0 {
		sp = phase("small")
		small := iperf.Run(eng, path, flowSmall, iperf.Config{
			Duration: cfg.SmallTransferSec,
			TCP:      tcpsim.Config{MaxWindowBytes: cfg.SmallWindowBytes, DelayedAck: true},
		})
		rec.SmallThroughput = small.ThroughputBps
		rec.SmallFlowLoss = small.FlowLossRate
		rec.SmallWindowBytes = cfg.SmallWindowBytes
		if rec.PreRTT > 0 {
			rec.SmallWindowLimited = float64(cfg.SmallWindowBytes)*8/rec.PreRTT < rec.AvailBw
		}
		sp.End()
	}

	// Phase 5: idle gap to the next epoch.
	sp = phase("gap")
	eng.RunUntil(eng.Now() + cfg.EpochGap)
	sp.End()
	return rec
}
