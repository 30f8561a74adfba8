package netem

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func twoHopSpec() PathSpec {
	return PathSpec{
		Name: "test",
		Forward: []Hop{
			{CapacityBps: 10e6, PropDelay: 0.01, BufferBytes: 1 << 20},
			{CapacityBps: 2e6, PropDelay: 0.02, BufferBytes: 64 * 1500},
		},
	}
}

func TestPathRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPath(eng, sim.NewRNG(1), twoHopSpec())
	var atB, atA *Packet
	p.B.Register(7, ReceiverFunc(func(pkt *Packet) {
		atB = pkt
		p.B.Send(&Packet{Flow: 7, Kind: KindAck, Size: 40})
	}))
	p.A.Register(7, ReceiverFunc(func(pkt *Packet) { atA = pkt }))
	p.A.Send(&Packet{Flow: 7, Kind: KindData, Size: 1500})
	eng.Run()
	if atB == nil {
		t.Fatal("packet did not reach B")
	}
	if atA == nil {
		t.Fatal("reply did not reach A")
	}
	if atA.Kind != KindAck {
		t.Errorf("reply kind %d, want %d (ack)", atA.Kind, KindAck)
	}
}

func TestPathBottleneck(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPath(eng, sim.NewRNG(1), twoHopSpec())
	if p.Bottleneck().CapacityBps != 2e6 {
		t.Errorf("bottleneck capacity %v, want 2e6", p.Bottleneck().CapacityBps)
	}
	if p.Bottleneck() != p.Fwd[1] {
		t.Error("bottleneck is not the second forward hop")
	}
}

func TestPathBaseRTT(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPath(eng, sim.NewRNG(1), twoHopSpec())
	// Forward: 10+20 ms prop; reverse mirrors forward (30 ms).
	// Plus serialization of 1500 B: fwd 1.2ms + 6ms, rev the same.
	want := 0.06 + 2*(1500*8/10e6+1500*8/2e6)
	got := p.BaseRTT(1500)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("BaseRTT %v, want %v", got, want)
	}
}

func TestPathMeasuredRTTMatchesBaseRTT(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPath(eng, sim.NewRNG(1), twoHopSpec())
	var rtt float64
	p.B.Register(1, ReceiverFunc(func(pkt *Packet) {
		p.B.SendRaw(&Packet{Flow: 1, Kind: KindEcho, Size: pkt.Size, SentAt: pkt.SentAt})
	}))
	p.A.Register(1, ReceiverFunc(func(pkt *Packet) { rtt = eng.Now() - pkt.SentAt }))
	p.A.Send(&Packet{Flow: 1, Kind: KindProbe, Size: 1500})
	eng.Run()
	if math.Abs(rtt-p.BaseRTT(1500)) > 1e-9 {
		t.Errorf("measured RTT %v, BaseRTT %v", rtt, p.BaseRTT(1500))
	}
}

// TestEndpointFallback: a packet for an unregistered flow reaches no
// other flow's handler and goes back to the path's pool.
func TestEndpointFallback(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPath(eng, sim.NewRNG(1), twoHopSpec())
	var other int
	p.B.Register(5, ReceiverFunc(func(*Packet) { other++ }))
	pkt := p.A.NewPacket()
	pkt.Flow, pkt.Size = 99, 100
	p.A.Send(pkt)
	eng.Run()
	if other != 0 {
		t.Errorf("flow 5's handler received %d packets of flow 0", other)
	}
	if p.Pool.Puts != 1 {
		t.Errorf("pool Puts = %d, want 1", p.Pool.Puts)
	}
}

func TestEndpointDeregister(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPath(eng, sim.NewRNG(1), twoHopSpec())
	n := 0
	p.B.Register(5, ReceiverFunc(func(*Packet) { n++ }))
	p.A.Send(&Packet{Flow: 5, Size: 100})
	eng.Run()
	p.B.Register(5, nil)
	p.A.Send(&Packet{Flow: 5, Size: 100})
	eng.Run()
	if n != 1 {
		t.Errorf("handler saw %d packets, want 1 (deregistered)", n)
	}
}

func TestDelayReceiver(t *testing.T) {
	eng := sim.NewEngine()
	var at float64
	d := NewDelayReceiver(eng, 0.25, ReceiverFunc(func(*Packet) { at = eng.Now() }))
	d.Receive(&Packet{Size: 1})
	eng.Run()
	if math.Abs(at-0.25) > 1e-12 {
		t.Errorf("delayed delivery at %v, want 0.25", at)
	}
}

func TestReversePathDefaultsMirrorsForward(t *testing.T) {
	eng := sim.NewEngine()
	spec := twoHopSpec()
	p := NewPath(eng, sim.NewRNG(1), spec)
	if len(p.Rev) != len(spec.Forward) {
		t.Errorf("reverse hops %d, want %d", len(p.Rev), len(spec.Forward))
	}
}

func TestPanicsOnEmptyPath(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty path spec did not panic")
		}
	}()
	NewPath(sim.NewEngine(), sim.NewRNG(1), PathSpec{Name: "empty"})
}
