// Package probe implements the paper's "homespun ping utility": a periodic
// prober that sends a small packet every interval and measures RTT and loss
// over a window, plus the echo responder for the far end.
//
// The prober produces exactly the estimates the FB predictor consumes:
// (T̂, p̂) when run before a target flow and (T̃, p̃) when run during one.
package probe

import (
	"repro/internal/netem"
	"repro/internal/sim"
)

// Result summarizes one probing window.
type Result struct {
	Sent     int
	MeanRTT  float64 // seconds; 0 if nothing was received
	MinRTT   float64
	MaxRTT   float64
	LossRate float64 // fraction of probes with no echo
}

// The paper's probe: 41 bytes every 100 ms, lost when no echo returns
// within 2 s.
const (
	interval    = 0.1 // seconds between probes
	probeSize   = 41  // bytes
	lossTimeout = 2.0 // seconds to wait for an echo before declaring loss
)

// Config is empty; Measure still takes one because bench/ passes probe.Config{}.
type Config struct{}

// Responder echoes probe packets back through its endpoint. Install one on
// the far endpoint of the path for each probe flow.
type Responder struct {
	out *netem.Endpoint
}

// NewResponder registers an echo responder for flow on ep.
func NewResponder(ep *netem.Endpoint, flow netem.FlowID) *Responder {
	r := &Responder{out: ep}
	ep.Register(flow, netem.ReceiverFunc(r.onProbe))
	return r
}

func (r *Responder) onProbe(pkt *netem.Packet) {
	if pkt.Kind != netem.KindProbe {
		r.out.ReleasePacket(pkt)
		return
	}
	// Turn the probe around in place: flipping Kind and re-injecting the
	// same packet keeps the echo path allocation-free, and SendRaw
	// preserves the original departure stamp so the prober computes a full
	// round-trip time.
	pkt.Kind = netem.KindEcho
	r.out.SendRaw(pkt)
}

// Prober sends periodic probes and accumulates RTT/loss statistics. A
// single prober can run continuously; Window snapshots and resets the
// counters, which is how the testbed obtains back-to-back before/during
// estimates.
type Prober struct {
	eng  *sim.Engine
	out  *netem.Endpoint
	flow netem.FlowID

	nextSeq   int64
	pending   map[int64]sim.Timer
	sent      int
	received  int
	rttSum    float64
	rttMin    float64
	rttMax    float64
	running   bool
	tickTimer sim.Timer
	tickFn    func() // p.tick, bound once so re-arming does not allocate
}

// NewProber creates a prober for flow on endpoint ep. The far endpoint
// needs a Responder registered for the same flow.
func NewProber(eng *sim.Engine, ep *netem.Endpoint, flow netem.FlowID) *Prober {
	p := &Prober{
		eng:     eng,
		out:     ep,
		flow:    flow,
		pending: make(map[int64]sim.Timer),
	}
	p.tickFn = p.tick
	ep.Register(flow, netem.ReceiverFunc(p.onEcho))
	return p
}

// Start begins periodic probing.
func (p *Prober) Start() {
	if p.running {
		return
	}
	p.running = true
	p.tick()
}

// Stop halts probing. Outstanding probes still count as losses when their
// timeout fires, so call Window only after quiescence or accept the
// in-flight skew.
func (p *Prober) Stop() {
	p.running = false
	p.tickTimer.Cancel()
}

func (p *Prober) tick() {
	if !p.running {
		return
	}
	seq := p.nextSeq
	p.nextSeq++
	p.sent++
	pkt := p.out.NewPacket()
	pkt.Flow = p.flow
	pkt.Kind = netem.KindProbe
	pkt.Size = probeSize
	pkt.Seq = seq
	p.out.Send(pkt)
	p.pending[seq] = p.eng.Schedule(lossTimeout, func() {
		// Timeout: the probe (or its echo) was lost. The counter already
		// includes it in sent; removing it from pending marks the loss.
		delete(p.pending, seq)
	})
	p.tickTimer = p.eng.Schedule(interval, p.tickFn)
}

func (p *Prober) onEcho(pkt *netem.Packet) {
	if pkt.Kind != netem.KindEcho {
		p.out.ReleasePacket(pkt)
		return
	}
	seq, sentAt := pkt.Seq, pkt.SentAt
	p.out.ReleasePacket(pkt)
	timer, ok := p.pending[seq]
	if !ok {
		return // echo arrived after its loss timeout; counted as lost
	}
	timer.Cancel()
	delete(p.pending, seq)
	rtt := p.eng.Now() - sentAt
	p.received++
	p.rttSum += rtt
	if p.rttMin == 0 || rtt < p.rttMin {
		p.rttMin = rtt
	}
	if rtt > p.rttMax {
		p.rttMax = rtt
	}
}

// Window snapshots the statistics accumulated since the last Window (or
// Start) and resets the counters. Probes still in flight carry over into
// the next window.
func (p *Prober) Window() Result {
	res := Result{
		Sent:   p.sent,
		MinRTT: p.rttMin,
		MaxRTT: p.rttMax,
	}
	if p.received > 0 {
		res.MeanRTT = p.rttSum / float64(p.received)
	}
	// Only probes that were resolved (echoed or timed out) contribute to
	// the loss rate; in-flight probes are excluded from both counts.
	resolved := p.sent - len(p.pending)
	if resolved > 0 {
		res.LossRate = float64(resolved-p.received) / float64(resolved)
		res.Sent = resolved
	}
	p.sent = len(p.pending)
	p.received = 0
	p.rttSum, p.rttMin, p.rttMax = 0, 0, 0
	return res
}

// Measure runs a fresh prober for duration seconds and returns the window.
// It is a convenience for one-shot measurements; the prober is stopped and
// deregistered afterwards (the responder for the flow must already exist).
func Measure(eng *sim.Engine, ep *netem.Endpoint, flow netem.FlowID, _ Config, duration float64) Result {
	p := NewProber(eng, ep, flow)
	p.Start()
	eng.RunUntil(eng.Now() + duration)
	p.Stop()
	// Let stragglers resolve so the loss rate is well-defined.
	eng.RunUntil(eng.Now() + lossTimeout + 0.001)
	res := p.Window()
	ep.Register(flow, nil)
	return res
}
