// Package testbed stands in for the RON testbed of the paper: a catalog of
// simulated Internet paths with diverse capacities, RTTs, buffers and cross
// traffic, plus the measurement-epoch machinery of the paper's Fig. 1
// (pathload avail-bw estimate → 60 s ping → 50 s bulk transfer, with ping
// continuing through the transfer, followed by a window-limited transfer).
package testbed

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// PathClass labels where a simulated path "is", mirroring the composition
// of the paper's path set.
type PathClass string

// Path classes.
const (
	ClassDSL           PathClass = "dsl"
	ClassUS            PathClass = "us"
	ClassTransatlantic PathClass = "transatlantic"
	ClassKorea         PathClass = "korea"
)

// PathConfig fully describes one testbed path and its ambient traffic.
type PathConfig struct {
	Name  string
	Class PathClass
	Spec  netem.PathSpec

	// Cross traffic at the bottleneck.
	BaseUtilization float64 // average open-loop load as a fraction of capacity
	ParetoShare     float64 // fraction of open-loop load from the Pareto source
	ElasticFlows    int     // persistent TCP cross flows
	ElasticRTTs     []float64
	LoadCfg         netem.LoadConfig // trace-scale load variation

	// Scenario-matrix extensions (see scenario.go). Zero values give the
	// paper's behavior: a Reno sender over a droptail path at the
	// campaign's large window.
	CC                tcpsim.Congestion // congestion control of the target transfer
	LinkType          LinkType          // bottleneck regime label, recorded per epoch
	TargetWindowBytes int               // per-path override of the target transfer's window
}

// CatalogConfig controls catalog generation.
type CatalogConfig struct {
	Seed      int64
	NumPaths  int     // total paths (default 35)
	NumDSL    int     // DSL-bottleneck paths among them (default 7)
	NumTrans  int     // transatlantic paths (default 5)
	NumKorea  int     // Korea paths (default 1)
	MaxCapBps float64 // cap on generated capacities (default 100 Mbps)
	MinCapBps float64 // floor on non-DSL capacities (default 10 Mbps)

	// horizon is the trace duration for the load process, seconds:
	// RunConfig.Defaults derives it from the epoch count (default 6 h).
	horizon float64
}

func (c CatalogConfig) defaults() CatalogConfig {
	if c.NumPaths == 0 {
		c.NumPaths = 35
	}
	if c.NumDSL == 0 && c.NumPaths >= 10 {
		c.NumDSL = 7
	}
	if c.NumTrans == 0 && c.NumPaths >= 10 {
		c.NumTrans = 5
	}
	if c.NumKorea == 0 && c.NumPaths >= 10 {
		c.NumKorea = 1
	}
	if c.MaxCapBps == 0 {
		c.MaxCapBps = 100e6
	}
	if c.MinCapBps == 0 {
		c.MinCapBps = 10e6
	}
	if c.horizon == 0 {
		c.horizon = 6 * 3600
	}
	return c
}

// Catalog generates a deterministic set of path configurations mirroring
// the May-2004 measurement set: NumDSL DSL-bottlenecked paths, NumTrans
// transatlantic, NumKorea via Korea, and the remainder US
// university-to-university.
func Catalog(cfg CatalogConfig) []PathConfig {
	cfg = cfg.defaults()
	rng := sim.NewRNG(cfg.Seed)
	paths := make([]PathConfig, 0, cfg.NumPaths)
	for i := 0; i < cfg.NumPaths; i++ {
		var class PathClass
		switch {
		case i < cfg.NumDSL:
			class = ClassDSL
		case i < cfg.NumDSL+cfg.NumTrans:
			class = ClassTransatlantic
		case i < cfg.NumDSL+cfg.NumTrans+cfg.NumKorea:
			class = ClassKorea
		default:
			class = ClassUS
		}
		paths = append(paths, generatePath(rng.Fork(), fmt.Sprintf("path%02d-%s", i, class), class, cfg))
	}
	return paths
}

func generatePath(rng *sim.RNG, name string, class PathClass, cfg CatalogConfig) PathConfig {
	var capBps, rtt float64
	// A standing (non-congestive) loss process on a sizeable fraction of
	// paths: lossy access links, noisy last miles, under-provisioned
	// peerings. These are the paths where periodic probing measures
	// p̂ > 0 and the FB predictor takes the PFTK branch — 56% of the
	// paper's predictions did.
	randomLoss := 0.0
	if rng.Bool(0.15) {
		randomLoss = rng.Uniform(5e-4, 3e-3)
	}
	switch class {
	case ClassDSL:
		capBps = rng.Uniform(0.7e6, 1.6e6)
		rtt = rng.Uniform(0.02, 0.07)
	case ClassTransatlantic:
		capBps = rng.Uniform(cfg.MinCapBps, cfg.MaxCapBps*0.5)
		rtt = rng.Uniform(0.09, 0.16)
	case ClassKorea:
		capBps = rng.Uniform(cfg.MinCapBps, cfg.MinCapBps*2)
		rtt = rng.Uniform(0.18, 0.26)
	default: // US
		capBps = rng.Uniform(cfg.MinCapBps, cfg.MaxCapBps)
		rtt = rng.Uniform(0.01, 0.09)
	}

	// Bottleneck buffering: university/backbone links hold 0.5-1.5
	// bandwidth-delay products; DSL modems of the era were overbuffered
	// (hundreds of ms to seconds). Small buffers cause the
	// under-utilization of §3.4, large ones the RTT inflation of §3.2.
	var buf, bufPkts int
	red := false
	if class == ClassDSL {
		// DSL modems: moderate packet buffers (50-300 ms). The paper's
		// RTT scatter (Fig. 10) tops out around 350 ms, so its DSL paths
		// were not multi-second-bufferbloated.
		bufPkts = int(capBps * rng.Uniform(0.05, 0.3) / 8 / 1500)
		if bufPkts < 8 {
			bufPkts = 8
		}
		buf = bufPkts * 1500
	} else {
		// Most router bottlenecks carry thousands of flows; their
		// aggregate drop process is far smoother than a single-flow
		// droptail sawtooth. Model that with RED on most of them.
		red = rng.Bool(0.7)
		// Router bottlenecks: packet-count buffers, so small probe
		// packets drop as readily as data packets during congestion.
		// RED routers are provisioned with more buffer, which the AQM
		// keeps mostly empty.
		bdp := capBps * rtt / 8
		lo, hi, min := 0.5, 1.5, 30
		if red {
			lo, hi, min = 1.0, 2.5, 60
		}
		bufPkts = int(bdp * rng.Uniform(lo, hi) / 1500)
		if bufPkts < min {
			bufPkts = min
		}
		buf = bufPkts * 1500
	}

	// Three-hop forward topology: access link, bottleneck, egress. Access
	// and egress run at ≥4× the bottleneck so only one queue dominates.
	access := capBps * rng.Uniform(4, 10)
	egress := capBps * rng.Uniform(4, 10)
	// Split the propagation delay across hops; reverse path symmetrical.
	d1, d2, d3 := rtt*0.1/2, rtt*0.7/2, rtt*0.2/2
	bigBuf := 4 * 1024 * 1024
	spec := netem.PathSpec{
		Name: name,
		Forward: []netem.Hop{
			{CapacityBps: access, PropDelay: d1, BufferBytes: bigBuf},
			{CapacityBps: capBps, PropDelay: d2, BufferBytes: buf, BufferPackets: bufPkts, LossProb: randomLoss, RED: red},
			{CapacityBps: egress, PropDelay: d3, BufferBytes: bigBuf},
		},
		Reverse: []netem.Hop{
			{CapacityBps: egress, PropDelay: d3, BufferBytes: bigBuf},
			{CapacityBps: access * 4, PropDelay: d2, BufferBytes: bigBuf},
			{CapacityBps: access, PropDelay: d1, BufferBytes: bigBuf},
		},
	}

	// Elastic (persistent TCP) cross traffic: real bottlenecks multiplex
	// many adaptive flows, so a new 1 MB-window transfer only captures a
	// share of the capacity rather than everything beyond the avail-bw.
	elastic := 0
	var elasticRTTs []float64
	if class != ClassDSL && rng.Bool(0.6) {
		elastic = 2 + rng.Intn(8)
		for j := 0; j < elastic; j++ {
			elasticRTTs = append(elasticRTTs, rng.Uniform(0.02, 0.25))
		}
	} else if class == ClassDSL && rng.Bool(0.4) {
		elastic = 1 + rng.Intn(2)
		for j := 0; j < elastic; j++ {
			elasticRTTs = append(elasticRTTs, rng.Uniform(0.02, 0.25))
		}
	}

	// Ambient open-loop load: mostly light-to-moderate paths, a tail of
	// congested ones (the paper's ~10 "hard" paths with pre-existing
	// congestion). Paths that already carry elastic flows get lighter
	// open-loop load so the total offered load stays plausible.
	var util float64
	switch {
	case elastic > 0:
		util = rng.Uniform(0.15, 0.5)
	case rng.Bool(0.4):
		// Congested paths, including a heavily congested tail where the
		// bottleneck runs at 85-97% before the target flow even starts —
		// the paper's ~10 "hard" paths, where FB overestimates worst:
		// ping sees a small standing loss rate, so the PFTK branch
		// predicts far more than the path can actually deliver.
		if rng.Bool(0.5) {
			util = rng.Uniform(0.8, 0.92)
		} else {
			util = rng.Uniform(0.6, 0.8)
		}
	default:
		util = rng.Uniform(0.05, 0.5)
	}

	loadCfg := netem.DefaultLoadConfig(cfg.horizon)
	// The offered open-loop load must stay bounded near the capacity, or
	// the path starves everything for minutes at a time — something real
	// WAN paths do not do. Cap the multiplier so util×level ≤ ~1.05.
	if util > 0 {
		if cap := 0.95 / util; cap < loadCfg.MaxLevel {
			loadCfg.MaxLevel = cap
		}
	}
	// Vary the pathology intensity across paths so some are stationary
	// ("predictable") and others shift often ("unpredictable"), as in the
	// paper's Fig. 21 path classes.
	loadCfg.ShiftMeanInterval *= rng.Uniform(0.5, 3)
	loadCfg.BurstMeanInterval *= rng.Uniform(0.5, 3)
	if rng.Bool(0.25) {
		// A quarter of the paths are essentially stationary.
		loadCfg.ShiftMeanInterval = cfg.horizon * 10
		loadCfg.BurstMeanInterval = cfg.horizon * 10
		loadCfg.TrendProb = 0
	}

	return PathConfig{
		Name:            name,
		Class:           class,
		Spec:            spec,
		BaseUtilization: util,
		ParetoShare:     rng.Uniform(0.2, 0.7),
		ElasticFlows:    elastic,
		ElasticRTTs:     elasticRTTs,
		LoadCfg:         loadCfg,
	}
}
