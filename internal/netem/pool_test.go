package netem

import (
	"testing"

	"repro/internal/sim"
)

func onePathHop() PathSpec {
	return PathSpec{
		Name:    "p",
		Forward: []Hop{{CapacityBps: 8e6, PropDelay: 0.01, BufferBytes: 1 << 20}},
	}
}

// TestPoolRecyclesThroughPath: a packet sent to an unregistered flow is
// recycled by the far endpoint's demux and handed back to the next sender.
func TestPoolRecyclesThroughPath(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPath(eng, sim.NewRNG(1), onePathHop())

	pkt := p.A.NewPacket()
	pkt.Flow = 42
	pkt.Size = 1000
	p.A.Send(pkt)
	eng.Run()
	if len(p.Pool.free) != 1 {
		t.Fatalf("pool holds %d packets after drop at demux, want 1", len(p.Pool.free))
	}
	if got := p.A.NewPacket(); got != pkt {
		t.Error("recycled packet not reused by next sender")
	} else if *got != (Packet{}) {
		t.Errorf("recycled packet not zeroed: %+v", *got)
	}
}

// TestPoolReleaseAtQueueDropSites: packets dropped by the random-loss and
// buffer-overflow branches go back to the pool, and the steady-state
// allocation count stays bounded by the in-flight high-water mark.
func TestPoolReleaseAtQueueDropSites(t *testing.T) {
	eng := sim.NewEngine()
	spec := onePathHop()
	spec.Forward[0].BufferBytes = 3000 // forces overflow drops under a burst
	spec.Forward[0].LossProb = 0.2
	p := NewPath(eng, sim.NewRNG(7), spec)

	const sent = 500
	for i := 0; i < sent; i++ {
		at := float64(i) * 0.002
		eng.At(at, func() {
			pkt := p.A.NewPacket()
			pkt.Flow = 9
			pkt.Size = 1000
			p.A.Send(pkt)
		})
	}
	eng.Run()
	st := p.Fwd[0].Stats()
	if st.Drops == 0 {
		t.Fatal("test needs drops to exercise the release sites")
	}
	if p.Pool.Gets != sent {
		t.Fatalf("Gets = %d, want %d", p.Pool.Gets, sent)
	}
	// Every packet either dropped at the queue or reached the unregistered
	// demux; both paths release, so eventually all live packets come home.
	if p.Pool.Puts != sent {
		t.Errorf("Puts = %d, want %d (drop or demux site failed to release)", p.Pool.Puts, sent)
	}
	if p.Pool.News >= sent/4 {
		t.Errorf("allocator hit %d times for %d sends; free list not recycling", p.Pool.News, sent)
	}
}

// TestPoolDoubleReleasePanics: the Size sentinel catches protocol
// violations at the second Put.
func TestPoolDoubleReleasePanics(t *testing.T) {
	pool := &PacketPool{}
	pkt := pool.Get()
	pool.Put(pkt)
	defer func() {
		if recover() == nil {
			t.Error("double Put did not panic")
		}
	}()
	pool.Put(pkt)
}

// TestPoolNilSafe: nil pools degrade to plain allocation so hand-built
// queues and sources outside a Path keep working.
func TestPoolNilSafe(t *testing.T) {
	var pool *PacketPool
	pkt := pool.Get()
	if pkt == nil {
		t.Fatal("nil pool Get returned nil")
	}
	pool.Put(pkt) // no-op
}

// TestSourcesDrawFromPathPool: a source aimed at a path queue discovers the
// path's pool, so open-loop cross traffic recycles through the far demux.
func TestSourcesDrawFromPathPool(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPath(eng, sim.NewRNG(5), onePathHop())
	src := NewPoissonSource(eng, sim.NewRNG(6), 11, 4e6, 1000, nil, p.Fwd[0])
	src.Start()
	eng.RunUntil(2)
	src.Stop()
	eng.RunUntil(3)
	sent := p.Fwd[0].Stats().Arrivals
	if sent == 0 {
		t.Fatal("source sent nothing")
	}
	pool := p.Pool
	if pool.Puts != sent {
		t.Errorf("Puts = %d, want %d (cross packets not recycled at demux)", pool.Puts, sent)
	}
	// News is bounded by the in-flight high-water mark (queue backlog plus
	// packets in propagation), not the total sent.
	if pool.News > 64 {
		t.Errorf("allocator hit %d times for %d cross packets", pool.News, sent)
	}
}
