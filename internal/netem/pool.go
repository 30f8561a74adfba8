package netem

// PacketPool is a free list of Packets owned by a Path. It exists so the
// packet hot path (sender → queues → endpoint demux) runs without touching
// the allocator in steady state: terminal consumers hand exhausted packets
// back with Put, and senders draw replacements with Get.
//
// The pool is deliberately NOT a sync.Pool. The simulator is
// single-threaded per engine, and sync.Pool's per-P caches and GC-driven
// eviction would make recycling order (and therefore allocation behaviour)
// nondeterministic across runs. A plain LIFO slice is cheaper and its
// behaviour is a pure function of the packet event sequence.
//
// Ownership protocol (see DESIGN.md §10):
//
//   - Whoever holds a *Packet owns it until they pass it on or Put it.
//     After either, the pointer must not be used again — the pool will
//     hand the same node to an unrelated sender.
//   - Exactly one party releases each packet: the terminal consumer (the
//     protocol handler that extracts the packet's information), or the
//     drop site (queue loss/overflow/RED, an endpoint's unregistered flow).
//   - Pass-through elements (queues in transit, DelayReceiver, fault
//     injection wrappers) never Put.
//   - Failing to Put is benign — the packet falls to the garbage
//     collector and the pool simply misses a recycle. Putting twice is a
//     protocol violation and panics immediately via the Size sentinel.
//
// All methods are nil-receiver-safe: code wired without a pool (hand-built
// queues in tests, standalone sources) degrades to plain allocation.
type PacketPool struct {
	free []*Packet

	// Counters for benchmarks and pool tests: News is the number of Gets
	// that fell through to the allocator.
	Gets, Puts, News int64
}

// pooledSentinel marks a packet currently sitting in the free list. No
// live packet has a negative size, so a Put of an already-pooled packet is
// detected in one comparison.
const pooledSentinel = -1

// Get returns a zeroed packet, recycling a released one when available.
func (p *PacketPool) Get() *Packet {
	if p == nil {
		return &Packet{}
	}
	p.Gets++
	n := len(p.free)
	if n == 0 {
		p.News++
		return &Packet{}
	}
	pkt := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	*pkt = Packet{}
	return pkt
}

// Put releases a packet back to the pool. The caller must not touch pkt
// afterwards. Put(nil) is a no-op; releasing the same packet twice panics.
func (p *PacketPool) Put(pkt *Packet) {
	if p == nil || pkt == nil {
		return
	}
	if pkt.Size == pooledSentinel {
		panic("netem: packet released twice")
	}
	pkt.Size = pooledSentinel
	pkt.Meta = nil // drop protocol payloads so the pool retains nothing
	p.Puts++
	p.free = append(p.free, pkt)
}
