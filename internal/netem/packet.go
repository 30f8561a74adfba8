// Package netem models network paths at packet granularity on top of the
// sim engine: droptail queues with finite buffers, fixed-capacity links with
// propagation delay, bidirectional paths, per-flow demultiplexing, and a set
// of cross-traffic generators (open-loop Poisson and Pareto ON/OFF sources,
// closed-loop persistent TCP herds, and a time-varying load process that
// injects level shifts, outliers, and trends).
package netem

import "fmt"

// FlowID identifies a flow end-to-end. Endpoint demuxers dispatch received
// packets to the handler registered for the packet's flow.
type FlowID int64

// PacketKind classifies what a packet carries. The simulator does not
// serialize payloads; protocol modules attach typed metadata instead.
type PacketKind uint8

// Packet kinds.
const (
	KindData  PacketKind = iota // TCP data segment
	KindAck                     // TCP acknowledgment
	KindProbe                   // ping request
	KindEcho                    // ping reply
	KindCross                   // open-loop cross traffic
	KindChirp                   // avail-bw probing stream packet
)

func (k PacketKind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindProbe:
		return "probe"
	case KindEcho:
		return "echo"
	case KindCross:
		return "cross"
	case KindChirp:
		return "chirp"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Packet is the unit of transmission. Packets are allocated by senders and
// flow through queues to an endpoint demux; they are not copied in transit.
type Packet struct {
	Flow FlowID
	Kind PacketKind
	Size int // bytes on the wire, including headers

	// Seq is protocol-defined: TCP byte sequence number for data, probe
	// sequence number for probes, stream/packet index for chirps.
	Seq int64
	// Ack is the cumulative ACK sequence for KindAck packets.
	Ack int64

	// SentAt is the virtual time the packet left the sender, used for RTT
	// measurement by probes and TCP.
	SentAt float64

	// Meta carries protocol-specific data (e.g. chirp stream parameters).
	Meta any
}

// Receiver consumes packets. Queues, pipes, and endpoint demuxers all
// implement Receiver, so network elements compose by chaining.
type Receiver interface {
	Receive(pkt *Packet)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(pkt *Packet)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(pkt *Packet) { f(pkt) }
