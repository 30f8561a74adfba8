package netem

import (
	"repro/internal/sim"
)

// A Source generates cross traffic into a Receiver (normally the bottleneck
// queue of a path). Sources are started once and run until the engine stops
// scheduling them or Stop is called.
type Source interface {
	Stop()
}

// PoissonSource emits fixed-size packets with exponential interarrivals at
// a time-varying average rate RateBps × Load(t).
type PoissonSource struct {
	Flow    FlowID
	RateBps float64
	Size    int
	Load    *LoadProcess
	Out     Receiver

	eng     *sim.Engine
	rng     *sim.RNG
	pool    *PacketPool
	stopped bool
	emitFn  func() // s.emit, bound once: a fresh method value allocates per packet
}

// NewPoissonSource builds a Poisson cross-traffic source. load may be nil
// for a constant rate.
func NewPoissonSource(eng *sim.Engine, rng *sim.RNG, flow FlowID, rateBps float64, size int, load *LoadProcess, out Receiver) *PoissonSource {
	if load == nil {
		load = ConstantLoad(1)
	}
	s := &PoissonSource{
		Flow: flow, RateBps: rateBps, Size: size, Load: load, Out: out,
		eng: eng, rng: rng,
	}
	s.emitFn = s.emit
	return s
}

// Start begins packet generation.
func (s *PoissonSource) Start() {
	s.pool = poolOf(s.Out)
	s.scheduleNext()
}

// poolOf discovers the packet pool behind a source's output receiver.
// Cross-traffic sources are normally pointed at a path queue; emitting from
// that path's pool lets the far endpoint's demux recycle the
// packets. Any other receiver gets plain allocations (nil pool).
func poolOf(out Receiver) *PacketPool {
	if q, ok := out.(*Queue); ok {
		return q.pool
	}
	return nil
}

// Stop halts generation after any in-flight event.
func (s *PoissonSource) Stop() { s.stopped = true }

func (s *PoissonSource) scheduleNext() {
	if s.stopped {
		return
	}
	rate := s.RateBps * s.Load.At(s.eng.Now())
	if rate <= 0 {
		// Idle: re-check for rate resumption after a short pause.
		s.eng.Schedule(0.1, s.scheduleNext)
		return
	}
	mean := float64(s.Size) * 8 / rate
	s.eng.Schedule(s.rng.Exp(mean), s.emitFn)
}

func (s *PoissonSource) emit() {
	if s.stopped {
		return
	}
	pkt := s.pool.Get()
	pkt.Flow = s.Flow
	pkt.Kind = KindCross
	pkt.Size = s.Size
	pkt.SentAt = s.eng.Now()
	s.Out.Receive(pkt)
	s.scheduleNext()
}

// ParetoOnOffSource emits packets at a constant PeakRateBps during ON
// periods and is silent during OFF periods; period lengths are Pareto
// distributed, which makes the aggregate bursty at many timescales. The
// long-run average rate is PeakRateBps × MeanOn/(MeanOn+MeanOff) × Load(t),
// where Load modulates the OFF duration.
type ParetoOnOffSource struct {
	Flow        FlowID
	PeakRateBps float64
	Size        int
	MeanOn      float64 // mean ON duration, seconds
	MeanOff     float64 // mean OFF duration, seconds
	Alpha       float64 // Pareto shape (>1); typical 1.5
	Load        *LoadProcess
	Out         Receiver

	eng     *sim.Engine
	rng     *sim.RNG
	pool    *PacketPool
	stopped bool
	onEnds  float64
	// s.emit and s.startOn, bound once (see PoissonSource).
	emitFn, startOnFn func()
}

// NewParetoOnOffSource builds a Pareto ON/OFF source.
func NewParetoOnOffSource(eng *sim.Engine, rng *sim.RNG, flow FlowID, peakBps float64, size int, meanOn, meanOff, alpha float64, load *LoadProcess, out Receiver) *ParetoOnOffSource {
	if load == nil {
		load = ConstantLoad(1)
	}
	if alpha <= 1 {
		alpha = 1.5
	}
	s := &ParetoOnOffSource{
		Flow: flow, PeakRateBps: peakBps, Size: size,
		MeanOn: meanOn, MeanOff: meanOff, Alpha: alpha,
		Load: load, Out: out, eng: eng, rng: rng,
	}
	s.emitFn, s.startOnFn = s.emit, s.startOn
	return s
}

// Start begins the ON/OFF cycle (starting OFF).
func (s *ParetoOnOffSource) Start() {
	s.pool = poolOf(s.Out)
	s.startOff()
}

// Stop halts generation.
func (s *ParetoOnOffSource) Stop() { s.stopped = true }

// paretoDuration draws a Pareto sample with the requested mean: for shape a,
// mean = xm*a/(a-1), so xm = mean*(a-1)/a.
func (s *ParetoOnOffSource) paretoDuration(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	xm := mean * (s.Alpha - 1) / s.Alpha
	d := s.rng.Pareto(s.Alpha, xm)
	// Truncate the heavy tail at 50× the mean to keep traces well-behaved.
	if d > 50*mean {
		d = 50 * mean
	}
	return d
}

func (s *ParetoOnOffSource) startOff() {
	if s.stopped {
		return
	}
	load := s.Load.At(s.eng.Now())
	meanOff := s.MeanOff
	if load > 0 {
		// Higher load shortens silences, raising the average rate.
		meanOff = s.MeanOff / load
	} else {
		meanOff = s.MeanOff * 10
	}
	s.eng.Schedule(s.paretoDuration(meanOff), s.startOnFn)
}

func (s *ParetoOnOffSource) startOn() {
	if s.stopped {
		return
	}
	s.onEnds = s.eng.Now() + s.paretoDuration(s.MeanOn)
	s.emit()
}

func (s *ParetoOnOffSource) emit() {
	if s.stopped {
		return
	}
	if s.eng.Now() >= s.onEnds {
		s.startOff()
		return
	}
	pkt := s.pool.Get()
	pkt.Flow = s.Flow
	pkt.Kind = KindCross
	pkt.Size = s.Size
	pkt.SentAt = s.eng.Now()
	s.Out.Receive(pkt)
	gap := float64(s.Size) * 8 / s.PeakRateBps
	s.eng.Schedule(gap, s.emitFn)
}
