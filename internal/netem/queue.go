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
	// EWMA of the queue occupancy drives a drop probability that is 0 up
	// to redMinTh of the buffer, rises linearly to redMaxP at redMaxTh,
	// and from there linearly to 1 at a full buffer (gentle RED). Tail
	// drop still applies at the hard limit.
	RED bool
	// ReorderProb delays a departing packet by one more propagation delay
	// instead of handing it straight to Next, so it arrives behind packets
	// transmitted after it — the classic cause of spurious duplicate ACKs.
	ReorderProb float64
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
	if q.RED && q.redDrop() {
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

// The RED drop curve: thresholds as fractions of the buffer, and the drop
// probability at redMaxTh. Typed, so each operation on them rounds to
// float64 as it would on a variable.
const (
	redMinTh float64 = 0.15
	redMaxTh float64 = 0.7
	redMaxP  float64 = 0.04
)

// redDrop updates the EWMA occupancy and applies the RED drop curve.
func (q *Queue) redDrop() bool {
	const wq = 0.02
	q.avgQ = (1-wq)*q.avgQ + wq*float64(q.qBytes)
	// Below redMinTh the probability is 0 and no random number is drawn.
	p := redDropProb(q.avgQ, float64(q.BufferBytes))
	return p > 0 && q.rng != nil && q.rng.Bool(p)
}

// redDropProb is the RED drop probability at EWMA occupancy avg in a
// buffer of full bytes.
func redDropProb(avg, full float64) float64 {
	lo := redMinTh * full
	hi := redMaxTh * full
	switch {
	case avg <= lo:
		return 0
	case avg >= hi:
		// Gentle RED: probability rises from redMaxP to 1 between
		// redMaxTh and the full buffer.
		return redMaxP + (1-redMaxP)*(avg-hi)/(full-hi)
	default:
		return redMaxP * (avg - lo) / (hi - lo)
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
		delay += q.PropDelay
	}
	q.eng.ScheduleArg(delay, q.deliverFn, pkt)
	q.transmitNext()
}

// deliver fires when a packet's propagation ends.
func (q *Queue) deliver(a any) { q.Next.Receive(a.(*Packet)) }
