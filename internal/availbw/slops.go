// Package availbw implements a pathload-style end-to-end available
// bandwidth estimator using Self-Loading Periodic Streams (SLoPS), as in
// Jain & Dovrolis: send a periodic packet stream at rate R and test the
// one-way delays for an increasing trend; a trend means R exceeds the
// available bandwidth. An adaptive search brackets the avail-bw between the
// highest non-trending and lowest trending rates.
//
// The estimator produces Â of the paper's Eq. (3) — including pathload's
// real estimation error, since streams are finite and cross traffic is
// bursty.
package availbw

import (
	"math"
	"sort"

	"repro/internal/netem"
	"repro/internal/sim"
)

// The probing constants of pathload's defaults.
const (
	packetSize     = 800  // bytes per probe packet
	interStreamGap = 0.3  // idle time between streams, seconds
	initialRate    = 1e6  // first probed rate, bps
	maxRate        = 1e9  // upper bound on probing, bps
	resolution     = 0.08 // stop when (hi-lo)/hi is below this
	streamTimeout  = 5.0  // per-stream receive timeout, seconds
)

// Config tunes the estimator. Zero fields are defaulted.
type Config struct {
	StreamLength   int // packets per stream (default 100)
	StreamsPerRate int // streams per probed rate, majority vote (default 2)
	MaxIterations  int // rate-adjustment iterations (default 14)
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.StreamLength == 0 {
		c.StreamLength = 100
	}
	if c.StreamsPerRate == 0 {
		c.StreamsPerRate = 2
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 14
	}
	return c
}

// Result is an avail-bw estimate.
type Result struct {
	Lo, Hi   float64 // bracketing range, bps
	Estimate float64 // midpoint of [Lo, Hi], bps
	Streams  int     // streams transmitted
	Duration float64 // virtual seconds the measurement took
}

// Trend classifies a stream's one-way-delay behaviour.
type Trend int

// Trend values.
const (
	TrendAmbiguous Trend = iota
	TrendIncreasing
	TrendNone
)

// pathload's published PCT/PDT thresholds.
const (
	pctIncreasing = 0.66
	pctNone       = 0.54
	pdtIncreasing = 0.55
	pdtNone       = 0.45
)

// ClassifyOWDs applies pathload's PCT/PDT tests to a stream's one-way
// delays. Exported for tests and for reuse by other estimators.
func ClassifyOWDs(owds []float64) Trend {
	k := len(owds)
	if k < 10 {
		return TrendAmbiguous
	}
	groups := int(math.Ceil(math.Sqrt(float64(k))))
	per := k / groups
	if per < 1 {
		return TrendAmbiguous
	}
	medians := make([]float64, 0, groups)
	for g := 0; g < groups; g++ {
		start := g * per
		end := start + per
		if g == groups-1 {
			end = k
		}
		if end <= start {
			break
		}
		medians = append(medians, median(owds[start:end]))
	}
	if len(medians) < 3 {
		return TrendAmbiguous
	}
	var up int
	var sumAbs, net float64
	for i := 1; i < len(medians); i++ {
		d := medians[i] - medians[i-1]
		if d > 0 {
			up++
		}
		sumAbs += math.Abs(d)
		net += d
	}
	pct := float64(up) / float64(len(medians)-1)
	pdt := 0.0
	if sumAbs > 0 {
		pdt = net / sumAbs
	}
	incr := 0
	none := 0
	switch {
	case pct > pctIncreasing:
		incr++
	case pct < pctNone:
		none++
	}
	switch {
	case pdt > pdtIncreasing:
		incr++
	case pdt < pdtNone:
		none++
	}
	switch {
	case incr > 0 && none == 0:
		return TrendIncreasing
	case none > 0 && incr == 0:
		return TrendNone
	default:
		return TrendAmbiguous
	}
}

func median(xs []float64) float64 {
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// Estimator drives SLoPS measurements over a path. It owns a flow ID on the
// path and runs the engine while measuring (measurements happen in situ, so
// cross traffic keeps flowing).
type Estimator struct {
	cfg  Config
	eng  *sim.Engine
	path *netem.Path
	flow netem.FlowID

	arrivals []float64 // OWDs of the stream in flight
	expected int
	nextSeq  int64  // index of the next chirp of the stream in flight
	chirpFn  func() // e.sendChirp, bound once
}

// NewEstimator creates an estimator using flow on the path.
func NewEstimator(eng *sim.Engine, path *netem.Path, flow netem.FlowID, cfg Config) *Estimator {
	e := &Estimator{cfg: cfg.Defaults(), eng: eng, path: path, flow: flow}
	e.chirpFn = e.sendChirp
	return e
}

// sendStream transmits one periodic stream at rate bps and returns the
// observed one-way delays (one per received packet, in arrival order).
func (e *Estimator) sendStream(rate float64) []float64 {
	e.arrivals = e.arrivals[:0]
	e.expected = e.cfg.StreamLength
	e.path.B.Register(e.flow, netem.ReceiverFunc(e.onChirp))
	defer e.path.B.Register(e.flow, nil)

	// The chirps fire in index order (increasing delays, ties broken by
	// scheduling order), so a counter stands in for a per-chirp closure.
	gap := float64(packetSize) * 8 / rate
	e.nextSeq = 0
	for i := 0; i < e.cfg.StreamLength; i++ {
		e.eng.Schedule(float64(i)*gap, e.chirpFn)
	}
	streamTime := float64(e.cfg.StreamLength)*gap + streamTimeout
	deadline := e.eng.Now() + streamTime
	// Run until all packets arrived or the timeout hits.
	for e.eng.Now() < deadline && len(e.arrivals) < e.expected {
		e.eng.RunUntil(math.Min(deadline, e.eng.Now()+0.05))
	}
	return append([]float64(nil), e.arrivals...)
}

func (e *Estimator) sendChirp() {
	pkt := e.path.A.NewPacket()
	pkt.Flow = e.flow
	pkt.Kind = netem.KindChirp
	pkt.Size = packetSize
	pkt.Seq = e.nextSeq
	e.nextSeq++
	e.path.A.Send(pkt)
}

func (e *Estimator) onChirp(pkt *netem.Packet) {
	if pkt.Kind != netem.KindChirp {
		e.path.B.ReleasePacket(pkt)
		return
	}
	e.arrivals = append(e.arrivals, e.eng.Now()-pkt.SentAt)
	e.path.B.ReleasePacket(pkt)
}

// probeRate sends StreamsPerRate streams at the rate and majority-votes the
// trend. Heavy in-stream loss (>15%) is itself read as "rate above
// avail-bw", as in pathload.
func (e *Estimator) probeRate(rate float64) Trend {
	incr, none := 0, 0
	for s := 0; s < e.cfg.StreamsPerRate; s++ {
		owds := e.sendStream(rate)
		lossFrac := 1 - float64(len(owds))/float64(e.cfg.StreamLength)
		var t Trend
		if lossFrac > 0.15 {
			t = TrendIncreasing
		} else {
			t = ClassifyOWDs(owds)
		}
		switch t {
		case TrendIncreasing:
			incr++
		case TrendNone:
			none++
		}
		e.eng.RunUntil(e.eng.Now() + interStreamGap)
	}
	switch {
	case incr > none:
		return TrendIncreasing
	case none > incr:
		return TrendNone
	default:
		return TrendAmbiguous
	}
}

// Estimate runs the adaptive rate search and returns the avail-bw range.
func (e *Estimator) Estimate() Result {
	start := e.eng.Now()
	cfg := e.cfg

	lo, hi := 0.0, 0.0
	rate := initialRate
	streams := 0

	// Phase 1: exponential growth until a trend appears (upper bound).
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		t := e.probeRate(rate)
		streams += cfg.StreamsPerRate
		if t == TrendIncreasing {
			hi = rate
			break
		}
		if t == TrendNone {
			lo = rate
		}
		if rate >= maxRate {
			hi = maxRate
			break
		}
		rate *= 2
		if rate > maxRate {
			rate = maxRate
		}
	}
	if hi == 0 {
		hi = rate
	}

	// Phase 2: binary search within [lo, hi].
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		if hi-lo <= resolution*hi {
			break
		}
		mid := (lo + hi) / 2
		if mid <= 0 {
			break
		}
		t := e.probeRate(mid)
		streams += cfg.StreamsPerRate
		switch t {
		case TrendIncreasing:
			hi = mid
		case TrendNone:
			lo = mid
		default:
			// Ambiguous: shrink the range from both sides, as pathload's
			// "grey region" handling does.
			lo += (mid - lo) / 4
			hi -= (hi - mid) / 4
		}
	}

	return Result{
		Lo:       lo,
		Hi:       hi,
		Estimate: (lo + hi) / 2,
		Streams:  streams,
		Duration: e.eng.Now() - start,
	}
}
