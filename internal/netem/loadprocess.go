package netem

import (
	"sort"

	"repro/internal/sim"
)

// LoadProcess is a piecewise-linear multiplier applied to a cross-traffic
// source's base rate. It is pre-generated for a whole trace so that a run is
// reproducible and so the analysis code can know the ground-truth load.
//
// The process combines three non-stationarities the paper observes in real
// throughput time series (Section 5.2): level shifts, outlier bursts, and
// slow trends.
type LoadProcess struct {
	segs []loadSeg
}

type loadSeg struct {
	start float64 // segment start time
	level float64 // multiplier at segment start
	slope float64 // multiplier change per second (trend)
}

// The shapes of the load process's pathologies: a level shift multiplies
// the level by a factor uniform in [shiftLo, shiftHi] (inverted with
// probability 0.5), and the level is clamped from below at minLevel; a
// burst multiplies it by burstFactor for a duration uniform in [burstMin,
// burstMax] seconds; a trend drifts by up to ±trendMaxSlope (fraction of
// level per second).
const (
	shiftLo, shiftHi   = 1.3, 2.2
	minLevel           = 0.25
	burstFactor        = 2.8
	burstMin, burstMax = 60, 180
	trendMaxSlope      = 1.0 / 7200 // drift up to 100% over 2 h
)

// LoadConfig tunes the generated load process. A zero mean interval or
// probability disables the corresponding feature.
type LoadConfig struct {
	Horizon float64 // duration to generate for, seconds

	// Level shifts: Poisson arrivals with the given mean interval, the
	// level clamped from above at MaxLevel.
	ShiftMeanInterval float64
	MaxLevel          float64

	// Outlier bursts: Poisson arrivals with the given mean interval.
	BurstMeanInterval float64

	// Trend: with probability TrendProb each inter-shift segment drifts.
	TrendProb float64
}

// DefaultLoadConfig returns a configuration that produces the mix of
// stationarity and pathologies seen in the paper's traces over a ~6 h trace.
func DefaultLoadConfig(horizon float64) LoadConfig {
	return LoadConfig{
		Horizon:           horizon,
		ShiftMeanInterval: 2400, // a level shift every ~40 min on average
		MaxLevel:          1.9,
		BurstMeanInterval: 1800,
		TrendProb:         0.25,
	}
}

// ConstantLoad returns a process pinned at the given multiplier.
func ConstantLoad(level float64) *LoadProcess {
	return &LoadProcess{segs: []loadSeg{{start: 0, level: level}}}
}

// GenerateLoad draws a load process from cfg using rng.
func GenerateLoad(rng *sim.RNG, cfg LoadConfig) *LoadProcess {
	if cfg.Horizon <= 0 {
		return ConstantLoad(1)
	}
	type change struct {
		at     float64
		factor float64 // multiplicative level change (0 = no change)
		burst  float64 // burst end time (0 = not a burst)
	}
	var changes []change
	if cfg.ShiftMeanInterval > 0 {
		for t := rng.Exp(cfg.ShiftMeanInterval); t < cfg.Horizon; t += rng.Exp(cfg.ShiftMeanInterval) {
			f := rng.Uniform(shiftLo, shiftHi)
			if rng.Bool(0.5) {
				f = 1 / f
			}
			changes = append(changes, change{at: t, factor: f})
		}
	}
	if cfg.BurstMeanInterval > 0 {
		for t := rng.Exp(cfg.BurstMeanInterval); t < cfg.Horizon; t += rng.Exp(cfg.BurstMeanInterval) {
			d := rng.Uniform(burstMin, burstMax)
			changes = append(changes, change{at: t, factor: burstFactor, burst: t + d})
		}
	}
	sort.Slice(changes, func(i, j int) bool { return changes[i].at < changes[j].at })

	lp := &LoadProcess{}
	level := 1.0
	push := func(t, lvl float64) {
		slope := 0.0
		if cfg.TrendProb > 0 && rng.Bool(cfg.TrendProb) {
			slope = rng.Uniform(-trendMaxSlope, trendMaxSlope) * lvl
		}
		lp.segs = append(lp.segs, loadSeg{start: t, level: lvl, slope: slope})
	}
	push(0, level)
	for _, c := range changes {
		if c.burst > 0 {
			// Burst: temporary elevation, then return to the pre-burst level.
			lp.segs = append(lp.segs, loadSeg{start: c.at, level: clamp(level*c.factor, minLevel, cfg.MaxLevel)})
			push(c.burst, level)
			continue
		}
		level = clamp(level*c.factor, minLevel, cfg.MaxLevel)
		push(c.at, level)
	}
	return lp
}

// At returns the multiplier at time t. Times before the first segment use
// the first segment's level; times after the horizon extrapolate the last
// segment (with its trend clamped at zero).
func (lp *LoadProcess) At(t float64) float64 {
	segs := lp.segs
	if len(segs) == 0 {
		return 1
	}
	// Binary search for the last segment starting at or before t.
	lo, hi := 0, len(segs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if segs[mid].start <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	s := segs[lo]
	v := s.level + s.slope*(t-s.start)
	if v < 0 {
		v = 0
	}
	return v
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
