package testbed

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// LinkType labels the bottleneck regime of a scenario path. The paper's
// catalog is all droptail/RED queues in front of fixed pipes; the
// scenario matrix adds the regimes that stress the predictors in
// qualitatively different ways.
type LinkType string

// Link types of the scenario matrix.
const (
	// LinkDroptail is the paper's regime: a fixed-capacity droptail
	// bottleneck with open-loop cross traffic — congestive loss coupled
	// to queue state.
	LinkDroptail LinkType = "droptail"
	// LinkRandomDrop is an i.i.d. per-packet drop process independent of
	// queue state (noisy line, policer): the cleanest substrate for
	// formula-based prediction, since p̂ measured by probes is exactly
	// the p the transfer will see.
	LinkRandomDrop LinkType = "randomdrop"
	// LinkCellular is a variable-rate bottleneck driven by a
	// RateSchedule trajectory (fading/scheduler-share dynamics): the
	// capacity itself moves, so loss-based formulas chase a moving
	// target.
	LinkCellular LinkType = "cellular"
	// LinkRwndLimited caps the target transfer's advertised window far
	// below the BDP over a lossy link: too few segments in flight for
	// triple-dupack recovery, so the transfer goes timeout-dominated —
	// the regime flip where PFTK's RTO term, not its sqrt(p) term,
	// rules throughput.
	LinkRwndLimited LinkType = "rwnd"
)

// scenario seed stream for sim.DeriveSeed, disjoint from the catalog and
// trace streams in run.go.
const seedStreamScenario = 0xCA7A106<<32 | 3

// DefaultSenders is the sender axis of the scenario matrix.
func DefaultSenders() []tcpsim.Congestion {
	return []tcpsim.Congestion{tcpsim.CCReno, tcpsim.CCCubic, tcpsim.CCBBR}
}

// DefaultLinks is the link axis of the scenario matrix.
func DefaultLinks() []LinkType {
	return []LinkType{LinkDroptail, LinkRandomDrop, LinkCellular, LinkRwndLimited}
}

// ScenarioConfig controls ScenarioCatalog generation.
type ScenarioConfig struct {
	Seed             int64
	PathsPerScenario int // paths per (sender × link) cell (default 1)

	// horizon is the trace duration for load/rate trajectories:
	// ScenarioScaled derives it from the epoch count (default 6 h).
	horizon float64
	// senders and links narrow the matrix for tests; every program runs
	// the full one.
	senders []tcpsim.Congestion // default: reno, cubic, bbr
	links   []LinkType          // default: all four link types
}

func (c ScenarioConfig) defaults() ScenarioConfig {
	if len(c.senders) == 0 {
		c.senders = DefaultSenders()
	}
	if len(c.links) == 0 {
		c.links = DefaultLinks()
	}
	if c.PathsPerScenario == 0 {
		c.PathsPerScenario = 1
	}
	if c.horizon == 0 {
		c.horizon = 6 * 3600
	}
	return c
}

// ScenarioCatalog generates the (sender × link) scenario matrix as a path
// list for RunConfig.Paths. The path substrate is keyed by (link, index)
// only — every sender runs over byte-identical topology, loss process and
// rate trajectory — so cross-sender comparisons isolate the congestion
// control. Paths are named cc-<sender>-<link>-p<i>.
func ScenarioCatalog(cfg ScenarioConfig) []PathConfig {
	cfg = cfg.defaults()
	out := make([]PathConfig, 0, len(cfg.senders)*len(cfg.links)*cfg.PathsPerScenario)
	for li, link := range cfg.links {
		for i := 0; i < cfg.PathsPerScenario; i++ {
			// One RNG per (link, instance): identical across senders.
			stream := seedStreamScenario ^ uint64(li+1)<<8 ^ uint64(i)
			base := scenarioPath(sim.NewRNG(sim.DeriveSeed(cfg.Seed, stream)), link, i, cfg.horizon)
			for _, cc := range cfg.senders {
				pc := base
				pc.Name = fmt.Sprintf("cc-%s-%s-p%d", cc, link, i)
				pc.CC = cc
				out = append(out, pc)
			}
		}
	}
	return out
}

// scenarioPath draws one path substrate for a link type. All regimes use
// the catalog's three-hop shape (fast access, bottleneck, fast egress) so
// differences between cells come from the bottleneck discipline alone.
func scenarioPath(rng *sim.RNG, link LinkType, idx int, horizon float64) PathConfig {
	capBps := rng.Uniform(4e6, 16e6)
	rtt := rng.Uniform(0.02, 0.12)
	bdp := capBps * rtt / 8

	hop := netem.Hop{CapacityBps: capBps}
	pc := PathConfig{
		Class:    ClassUS,
		LinkType: link,
		// Stationary ambient load: the scenario matrix isolates the
		// sender × bottleneck interaction, so trace-scale load shifts
		// stay off.
		LoadCfg: stationaryLoad(horizon),
	}

	switch link {
	case LinkDroptail:
		// The paper's regime: droptail buffer around one BDP, moderate
		// open-loop cross traffic providing the loss process.
		hop.BufferBytes = clampBytes(bdp*rng.Uniform(0.6, 1.4), 30*1500)
		pc.BaseUtilization = rng.Uniform(0.3, 0.6)
		pc.ParetoShare = rng.Uniform(0.2, 0.6)
	case LinkRandomDrop:
		// Clean, overprovisioned queue; i.i.d. drops are the only loss.
		hop.BufferBytes = clampBytes(bdp*3, 60*1500)
		hop.LossProb = rng.Uniform(0.003, 0.02)
	case LinkCellular:
		// Variable-rate pipe: nominal capacity scaled by a piecewise-
		// constant trajectory. Buffer sized for the nominal rate, so deep
		// fades build real queues (the bufferbloat-style RTT swings that
		// make cellular throughput hard to predict).
		hop.BufferBytes = clampBytes(bdp*rng.Uniform(1.0, 2.0), 40*1500)
		hop.Rate = GenerateRateSchedule(rng.Fork(), horizon)
	case LinkRwndLimited:
		// Lossy line plus a tiny advertised window on the target
		// transfer: 3-6 segments in flight cannot produce three duplicate
		// ACKs, so recovery is RTO-driven.
		hop.BufferBytes = clampBytes(bdp, 30*1500)
		hop.LossProb = rng.Uniform(0.008, 0.025)
		if rng.Bool(0.5) {
			pc.TargetWindowBytes = 4 << 10
		} else {
			pc.TargetWindowBytes = 8 << 10
		}
	default:
		panic("testbed: unknown link type " + string(link))
	}

	d1, d2, d3 := rtt*0.1/2, rtt*0.7/2, rtt*0.2/2
	access := capBps * rng.Uniform(4, 8)
	egress := capBps * rng.Uniform(4, 8)
	bigBuf := 4 * 1024 * 1024
	bottleneck := hop
	bottleneck.PropDelay = d2
	pc.Spec = netem.PathSpec{
		Forward: []netem.Hop{
			{CapacityBps: access, PropDelay: d1, BufferBytes: bigBuf},
			bottleneck,
			{CapacityBps: egress, PropDelay: d3, BufferBytes: bigBuf},
		},
		Reverse: []netem.Hop{
			{CapacityBps: egress, PropDelay: d3, BufferBytes: bigBuf},
			{CapacityBps: access * 4, PropDelay: d2, BufferBytes: bigBuf},
			{CapacityBps: access, PropDelay: d1, BufferBytes: bigBuf},
		},
	}
	return pc
}

// stationaryLoad returns a load process configuration with shifts and
// bursts pushed beyond the horizon: a flat multiplier of 1.
func stationaryLoad(horizon float64) netem.LoadConfig {
	cfg := netem.DefaultLoadConfig(horizon)
	cfg.ShiftMeanInterval = horizon * 10
	cfg.BurstMeanInterval = horizon * 10
	cfg.TrendProb = 0
	return cfg
}

// clampBytes floors a float byte count at min and returns it as int.
func clampBytes(v float64, min int) int {
	n := int(v)
	if n < min {
		n = min
	}
	return n
}

// Rate-trajectory generation parameters: a small Markov chain over
// capacity tiers with exponential dwell times — deep fades are visited
// but the link spends most time near nominal, like an LTE scheduler
// share seen by one subscriber.
var rateTiers = []float64{1.0, 0.75, 0.5, 0.3, 0.15}

// GenerateRateSchedule draws a piecewise-constant capacity trajectory
// covering [0, horizon]. Deterministic in rng; tier transitions step at
// most one tier at a time so the trajectory is bursty but not teleporting.
func GenerateRateSchedule(rng *sim.RNG, horizon float64) *netem.RateSchedule {
	sched := &netem.RateSchedule{}
	tier := 0
	t := 0.0
	for t < horizon {
		// Dwell in the current tier 1-8 s (longer near nominal).
		mean := 2.0 + 4.0*rateTiers[tier]
		dwell := rng.Exp(mean)
		if dwell < 0.5 {
			dwell = 0.5
		}
		t += dwell
		// Random walk over tiers, biased back toward nominal.
		switch {
		case tier == 0:
			tier = 1
		case tier == len(rateTiers)-1:
			tier--
		case rng.Bool(0.6):
			tier--
		default:
			tier++
		}
		sched.Steps = append(sched.Steps, netem.RateStep{T: t, Mult: rateTiers[tier]})
	}
	return sched
}

// ScenarioScaled returns a RunConfig for the scenario matrix campaign at
// CI-friendly scale: phase durations as in DefaultScaled, the generated
// catalog replaced by the scenario paths.
func ScenarioScaled(seed int64, scfg ScenarioConfig) RunConfig {
	cfg := DefaultScaled(seed)
	scfg.Seed = sim.DeriveSeed(seed, seedStreamScenario)
	if scfg.horizon == 0 {
		// Match the horizon defaults() will compute for the run, so rate
		// trajectories cover every epoch.
		perEpoch := 25 + cfg.PingDuration + cfg.TransferSec + cfg.EpochGap
		if cfg.SmallWindowBytes > 0 {
			perEpoch += cfg.SmallTransferSec + 2
		}
		epochs := cfg.EpochsPerTrace
		scfg.horizon = perEpoch*float64(epochs) + 600
	}
	cfg.Paths = ScenarioCatalog(scfg)
	return cfg
}
