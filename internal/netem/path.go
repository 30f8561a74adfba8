package netem

import (
	"fmt"

	"repro/internal/sim"
)

// Hop describes one link of a path.
type Hop struct {
	CapacityBps   float64 // link capacity, bits per second
	PropDelay     float64 // one-way propagation delay, seconds
	BufferBytes   int     // droptail buffer size, bytes
	BufferPackets int     // optional packet-count limit (router-style buffers)
	LossProb      float64 // random (non-congestive) per-packet loss probability
	RED           bool    // enable RED/AQM dropping (see Queue)
	// Rate optionally makes the hop variable-rate (see Queue.Rate). The
	// schedule is shared by reference: a spec whose Reverse mirrors
	// Forward sees the same trajectory in both directions.
	Rate *RateSchedule
}

// PathSpec describes a bidirectional path. Reverse may be empty, in which
// case the reverse direction mirrors Forward.
type PathSpec struct {
	Name    string
	Forward []Hop
	Reverse []Hop
}

// Path is an instantiated bidirectional network path. Endpoint A transmits
// toward B over the forward queues; B transmits toward A over the reverse
// queues. Cross traffic can be injected at any forward queue.
type Path struct {
	Name string
	Fwd  []*Queue
	Rev  []*Queue
	A    *Endpoint
	B    *Endpoint
	// Pool recycles packets that complete their journey on this path. Both
	// endpoints and all queues share it; see PacketPool for the ownership
	// protocol.
	Pool *PacketPool
}

// NewPath builds the queues and endpoints for spec.
func NewPath(eng *sim.Engine, rng *sim.RNG, spec PathSpec) *Path {
	if len(spec.Forward) == 0 {
		panic(fmt.Sprintf("netem: path %q has no forward hops", spec.Name))
	}
	rev := spec.Reverse
	if len(rev) == 0 {
		rev = spec.Forward
	}
	p := &Path{Name: spec.Name, Pool: &PacketPool{}}
	p.A = newEndpoint(eng)
	p.B = newEndpoint(eng)
	p.A.pool = p.Pool
	p.B.pool = p.Pool
	p.Fwd = buildChain(eng, rng, spec.Forward, p.B)
	p.Rev = buildChain(eng, rng, rev, p.A)
	for _, q := range p.Fwd {
		q.pool = p.Pool
	}
	for _, q := range p.Rev {
		q.pool = p.Pool
	}
	p.A.out = p.Fwd[0]
	p.B.out = p.Rev[0]
	return p
}

func buildChain(eng *sim.Engine, rng *sim.RNG, hops []Hop, sink Receiver) []*Queue {
	queues := make([]*Queue, len(hops))
	next := sink
	for i := len(hops) - 1; i >= 0; i-- {
		h := hops[i]
		q := NewQueue(eng, rng.Fork(), h.CapacityBps, h.PropDelay, h.BufferBytes, next)
		q.LossProb = h.LossProb
		q.BufferPackets = h.BufferPackets
		q.RED = h.RED
		q.Rate = h.Rate
		queues[i] = q
		next = q
	}
	return queues
}

// Bottleneck returns the forward queue with the smallest capacity. Ties go
// to the earliest hop.
func (p *Path) Bottleneck() *Queue {
	best := p.Fwd[0]
	for _, q := range p.Fwd[1:] {
		if q.CapacityBps < best.CapacityBps {
			best = q
		}
	}
	return best
}

// BaseRTT returns the two-way propagation plus per-hop transmission delay
// for a packet of the given size, with empty queues.
func (p *Path) BaseRTT(size int) float64 {
	rtt := 0.0
	for _, q := range p.Fwd {
		rtt += q.PropDelay + q.TransmissionTime(size)
	}
	for _, q := range p.Rev {
		rtt += q.PropDelay + q.TransmissionTime(size)
	}
	return rtt
}

// Endpoint is a path terminus: it stamps and injects packets into its
// direction's first queue and demultiplexes arriving packets by flow ID.
type Endpoint struct {
	eng      *sim.Engine
	out      Receiver
	pool     *PacketPool
	handlers map[FlowID]Receiver
}

func newEndpoint(eng *sim.Engine) *Endpoint {
	return &Endpoint{
		eng:      eng,
		handlers: make(map[FlowID]Receiver),
	}
}

// Send stamps the packet's departure time and injects it toward the peer.
func (ep *Endpoint) Send(pkt *Packet) {
	pkt.SentAt = ep.eng.Now()
	ep.out.Receive(pkt)
}

// SendRaw injects without restamping SentAt (used by echo responders that
// must preserve the original probe timestamp).
func (ep *Endpoint) SendRaw(pkt *Packet) { ep.out.Receive(pkt) }

// NewPacket acquires a zeroed packet from the path's pool (or allocates
// when the endpoint was built without one). The caller owns it until it is
// passed to Send or released with ReleasePacket.
func (ep *Endpoint) NewPacket() *Packet { return ep.pool.Get() }

// ReleasePacket returns an exhausted packet to the path's pool. Terminal
// protocol handlers call this once they have extracted everything they
// need; the packet must not be touched afterwards.
func (ep *Endpoint) ReleasePacket(pkt *Packet) { ep.pool.Put(pkt) }

// Register installs the handler for a flow. Registering nil removes it.
func (ep *Endpoint) Register(flow FlowID, h Receiver) {
	if h == nil {
		delete(ep.handlers, flow)
		return
	}
	ep.handlers[flow] = h
}

// Handler returns the receiver registered for a flow (nil if none), so
// callers can interpose wrappers such as loss or delay injectors.
func (ep *Endpoint) Handler(flow FlowID) Receiver {
	return ep.handlers[flow]
}

// Receive implements Receiver by dispatching on the packet's flow.
func (ep *Endpoint) Receive(pkt *Packet) {
	if h, ok := ep.handlers[pkt.Flow]; ok {
		h.Receive(pkt)
		return
	}
	// Unregistered flow: the demux is the terminal consumer, so it
	// recycles the packet instead of leaking it to GC.
	ep.pool.Put(pkt)
}

// DelayReceiver forwards packets to Next after a fixed extra delay. It is
// used to give cross-traffic TCP flows a different RTT than the target flow
// without building a separate topology. As with Queue.Next, Next is read
// when the delay ends and is fixed once traffic flows.
type DelayReceiver struct {
	Delay float64
	Next  Receiver

	eng       *sim.Engine
	deliverFn func(any) // d.deliver, bound once
}

// NewDelayReceiver wraps next with a fixed delay stage.
func NewDelayReceiver(eng *sim.Engine, delay float64, next Receiver) *DelayReceiver {
	d := &DelayReceiver{Delay: delay, Next: next, eng: eng}
	d.deliverFn = d.deliver
	return d
}

// Receive implements Receiver.
func (d *DelayReceiver) Receive(pkt *Packet) {
	if d.Delay <= 0 {
		d.Next.Receive(pkt)
		return
	}
	d.eng.ScheduleArg(d.Delay, d.deliverFn, pkt)
}

func (d *DelayReceiver) deliver(a any) { d.Next.Receive(a.(*Packet)) }
