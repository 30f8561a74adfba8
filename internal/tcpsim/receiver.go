package tcpsim

import (
	"repro/internal/netem"
	"repro/internal/sim"
)

// Receiver is the TCP sink: it reassembles the segment stream, generates
// cumulative ACKs (optionally delayed) carrying SACK blocks, and emits
// immediate duplicate ACKs on out-of-order arrivals so the sender's loss
// recovery works.
type Receiver struct {
	cfg  Config
	eng  *sim.Engine
	out  *netem.Endpoint
	flow netem.FlowID

	cumAck     int64 // next expected segment
	ooo        blockList
	unacked    int // in-order segments since last ACK (delayed-ACK counter)
	delayTimer sim.Timer
	delayFn    func() // r.onDelayTimeout, bound once so arming does not allocate
}

// NewReceiver creates a receiver for flow on endpoint ep (the data sink
// side); ACKs are sent back through ep.
func NewReceiver(eng *sim.Engine, ep *netem.Endpoint, flow netem.FlowID, cfg Config) *Receiver {
	cfg = cfg.Defaults()
	r := &Receiver{
		cfg:  cfg,
		eng:  eng,
		out:  ep,
		flow: flow,
	}
	r.delayFn = r.onDelayTimeout
	ep.Register(flow, netem.ReceiverFunc(r.onData))
	return r
}

// Stop deregisters the receiver and cancels its delayed-ACK timer.
func (r *Receiver) Stop() {
	r.out.Register(r.flow, nil)
	r.delayTimer.Cancel()
}

func (r *Receiver) onData(pkt *netem.Packet) {
	if pkt.Kind != netem.KindData {
		r.out.ReleasePacket(pkt)
		return
	}
	seq := pkt.Seq
	// Terminal consumer: everything needed is in seq; recycle the segment
	// so the ACK (and the sender's next data packet) can reuse it.
	r.out.ReleasePacket(pkt)
	switch {
	case seq == r.cumAck:
		r.cumAck++
		if blk, ok := r.ooo.PopFirstIfStartsAt(r.cumAck); ok {
			r.cumAck = blk.End
		}
		if r.ooo.Count() > 0 {
			// Filling a hole while later holes remain: ACK immediately so
			// recovery keeps its self-clock.
			r.sendAck()
			return
		}
		r.unacked++
		if !r.cfg.DelayedAck || r.unacked >= 2 {
			r.sendAck()
		} else if !r.delayTimer.Pending() {
			r.delayTimer = r.eng.Schedule(delAckTimeout, r.delayFn)
		}
	case seq > r.cumAck:
		// Out of order: buffer and send an immediate duplicate ACK with
		// updated SACK information.
		r.ooo.Add(seq, seq+1)
		r.sendAck()
	default:
		// Duplicate of already-delivered data: ACK immediately.
		r.sendAck()
	}
}

func (r *Receiver) onDelayTimeout() {
	if r.unacked > 0 {
		r.sendAck()
	}
}

func (r *Receiver) sendAck() {
	r.unacked = 0
	r.delayTimer.Cancel()
	pkt := r.out.NewPacket()
	pkt.Flow = r.flow
	pkt.Kind = netem.KindAck
	pkt.Size = headerBytes
	pkt.Ack = r.cumAck
	if !r.cfg.noSACK && r.ooo.Count() > 0 {
		pkt.Meta = r.ooo.Snapshot()
	}
	r.out.Send(pkt)
}

// Connection bundles a sender and receiver wired across a path, the common
// case in the testbed and examples.
type Connection struct {
	Sender   *Sender
	Receiver *Receiver
}

// Dial wires a TCP connection over path: data flows A→B, ACKs B→A.
func Dial(eng *sim.Engine, path *netem.Path, flow netem.FlowID, cfg Config) *Connection {
	cfg = cfg.Defaults()
	return &Connection{
		Sender:   NewSender(eng, path.A, flow, cfg),
		Receiver: NewReceiver(eng, path.B, flow, cfg),
	}
}

// DialWithExtraDelay wires a TCP connection over path whose packets incur
// an extra fixed delay in each direction, giving the flow a larger base RTT
// than the path itself. Used for cross-traffic flows with heterogeneous
// RTTs.
func DialWithExtraDelay(eng *sim.Engine, path *netem.Path, flow netem.FlowID, extra float64, cfg Config) *Connection {
	cfg = cfg.Defaults()
	conn := &Connection{
		Sender:   NewSender(eng, path.A, flow, cfg),
		Receiver: NewReceiver(eng, path.B, flow, cfg),
	}
	if extra > 0 {
		// Interpose half the extra delay on each direction's delivery.
		half := extra / 2
		sendH := netem.ReceiverFunc(conn.Sender.onAck)
		recvH := netem.ReceiverFunc(conn.Receiver.onData)
		path.A.Register(flow, netem.NewDelayReceiver(eng, half, sendH))
		path.B.Register(flow, netem.NewDelayReceiver(eng, half, recvH))
	}
	return conn
}

// Stop halts both halves.
func (c *Connection) Stop() {
	c.Sender.Stop()
	c.Receiver.Stop()
}
