package netem

import (
	"fmt"

	"repro/internal/sim"
)

// QueueStats counts what happened at a queue since its creation.
type QueueStats struct {
	Arrivals   int64 // packets offered
	Departures int64 // packets fully transmitted
	Drops      int64 // packets dropped (buffer overflow or random loss)
	RandomLoss int64 // subset of Drops caused by the random-loss process
	BytesIn    int64 // bytes offered
}

// Queue is a droptail FIFO in front of a fixed-capacity link with
// propagation delay. It transmits one packet at a time at CapacityBps and
// delivers each packet to Next after the transmission time plus PropDelay.
//
// An optional random-loss probability models non-congestive loss (e.g. a
// noisy DSL line): each arriving packet is independently discarded with
// probability LossProb before it is enqueued.
type Queue struct {
	CapacityBps float64 // link capacity in bits per second
	PropDelay   float64 // one-way propagation delay in seconds
	BufferBytes int     // byte buffer limit; packets beyond this are dropped
	// BufferPackets optionally limits the queue length in packets, the
	// behaviour of packet-count-buffered routers: small packets then drop
	// as readily as MTU-sized ones, which matters for loss rates measured
	// with small probes. Zero disables the packet limit.
	BufferPackets int
	LossProb      float64 // random per-packet loss probability
	// RED enables random-early-detection dropping, approximating the
	// smoother per-flow loss seen on highly multiplexed router links: an
	// EWMA of the queue occupancy drives a drop probability that rises
	// linearly from 0 at MinTh to MaxP at MaxTh (fractions of the buffer)
	// and to 1 above MaxTh. Tail drop still applies at the hard limit.
	RED   bool
	MinTh float64 // default 0.15
	MaxTh float64 // default 0.7
	MaxP  float64 // default 0.04
	// ReorderProb delays a departing packet by ReorderDelay instead of
	// handing it straight to Next, so it arrives behind packets
	// transmitted after it — the classic cause of spurious duplicate ACKs.
	ReorderProb  float64
	ReorderDelay float64 // default: one propagation delay
	// Rate, when non-nil, scales the link capacity over time (a
	// cellular-style variable-rate link): each packet serializes at
	// CapacityBps × Rate.At(t) sampled at its transmission start.
	Rate *RateSchedule
	// Next receives each packet when its propagation ends. It is read at
	// delivery time, so it is fixed once traffic flows: reassigning it
	// would redirect packets already on the wire.
	Next Receiver

	eng  *sim.Engine
	rng  *sim.RNG
	pool *PacketPool // set when the queue belongs to a Path; nil-safe
	// q.txDone and q.deliver, bound once: evaluated at the scheduling site
	// each would allocate a method value per packet.
	txDoneFn, deliverFn func(any)

	fifo   []*Packet
	head   int
	qBytes int
	avgQ   float64 // EWMA of occupancy (bytes) for RED
	busy   bool
	stats  QueueStats
}

// NewQueue constructs a queue bound to the engine. rng may be nil when
// LossProb is zero.
func NewQueue(eng *sim.Engine, rng *sim.RNG, capacityBps, propDelay float64, bufferBytes int, next Receiver) *Queue {
	if capacityBps <= 0 {
		panic(fmt.Sprintf("netem: queue capacity must be positive, got %v bps", capacityBps))
	}
	if bufferBytes <= 0 {
		panic(fmt.Sprintf("netem: queue buffer must be positive, got %d bytes", bufferBytes))
	}
	q := &Queue{
		CapacityBps: capacityBps,
		PropDelay:   propDelay,
		BufferBytes: bufferBytes,
		Next:        next,
		eng:         eng,
		rng:         rng,
	}
	q.txDoneFn, q.deliverFn = q.txDone, q.deliver
	return q
}

// Stats returns a copy of the queue counters.
func (q *Queue) Stats() QueueStats { return q.stats }

// TransmissionTime returns the time to serialize a packet of size bytes.
func (q *Queue) TransmissionTime(size int) float64 {
	return float64(size) * 8 / q.CapacityBps
}

// Receive implements Receiver: enqueue or drop.
func (q *Queue) Receive(pkt *Packet) {
	q.stats.Arrivals++
	q.stats.BytesIn += int64(pkt.Size)
	// Drop sites release the packet to the pool: a dropped packet's journey
	// ends here.
	if q.LossProb > 0 && q.rng != nil && q.rng.Bool(q.LossProb) {
		q.stats.Drops++
		q.stats.RandomLoss++
		q.pool.Put(pkt)
		return
	}
	if q.qBytes+pkt.Size > q.BufferBytes ||
		(q.BufferPackets > 0 && len(q.fifo)-q.head >= q.BufferPackets) {
		q.stats.Drops++
		q.pool.Put(pkt)
		return
	}
	if q.RED && q.redDrop(pkt) {
		q.stats.Drops++
		q.pool.Put(pkt)
		return
	}
	q.fifo = append(q.fifo, pkt)
	q.qBytes += pkt.Size
	if !q.busy {
		q.transmitNext()
	}
}

// redDrop updates the EWMA occupancy and applies the RED drop curve.
func (q *Queue) redDrop(pkt *Packet) bool {
	const wq = 0.02
	q.avgQ = (1-wq)*q.avgQ + wq*float64(q.qBytes)
	minTh, maxTh, maxP := q.MinTh, q.MaxTh, q.MaxP
	if minTh == 0 {
		minTh = 0.15
	}
	if maxTh == 0 {
		maxTh = 0.7
	}
	if maxP == 0 {
		maxP = 0.04
	}
	lo := minTh * float64(q.BufferBytes)
	hi := maxTh * float64(q.BufferBytes)
	switch {
	case q.avgQ <= lo:
		return false
	case q.avgQ >= hi:
		// Gentle RED: probability rises from maxP to 1 between MaxTh and
		// the full buffer.
		full := float64(q.BufferBytes)
		p := maxP + (1-maxP)*(q.avgQ-hi)/(full-hi)
		return q.rng != nil && q.rng.Bool(p)
	default:
		p := maxP * (q.avgQ - lo) / (hi - lo)
		return q.rng != nil && q.rng.Bool(p)
	}
}

func (q *Queue) transmitNext() {
	if q.head == len(q.fifo) {
		q.busy = false
		q.fifo = q.fifo[:0]
		q.head = 0
		return
	}
	q.busy = true
	pkt := q.fifo[q.head]
	q.fifo[q.head] = nil
	q.head++
	if q.head > 64 && q.head*2 > len(q.fifo) {
		n := copy(q.fifo, q.fifo[q.head:])
		q.fifo = q.fifo[:n]
		q.head = 0
	}
	q.qBytes -= pkt.Size
	tx := q.TransmissionTime(pkt.Size)
	if q.Rate != nil {
		tx /= q.Rate.At(q.eng.Now())
	}
	q.eng.ScheduleArg(tx, q.txDoneFn, pkt)
}

// txDone fires when pkt is serialized: it starts pkt's propagation toward
// Next and the next packet's transmission.
func (q *Queue) txDone(a any) {
	pkt := a.(*Packet)
	q.stats.Departures++
	delay := q.PropDelay
	if q.ReorderProb > 0 && q.rng != nil && q.rng.Bool(q.ReorderProb) {
		extra := q.ReorderDelay
		if extra == 0 {
			extra = q.PropDelay
		}
		delay += extra
	}
	q.eng.ScheduleArg(delay, q.deliverFn, pkt)
	q.transmitNext()
}

// deliver fires when a packet's propagation ends.
func (q *Queue) deliver(a any) { q.Next.Receive(a.(*Packet)) }
