package netem

import (
	"testing"

	"repro/internal/sim"
)

// The packet path's allocation contract, as tests rather than prose: once
// the engine arena, the queue FIFOs and the packet pool are warm, moving a
// packet across a path costs no heap object — the per-packet events ride
// in timer nodes through handlers bound once (Queue.txDone/deliver), not in
// closures.

// threeHops is a path whose middle hop is the bottleneck; red switches
// every hop to RED, and the first hop always carries a rate schedule so the
// Rate.At lookup is on the measured path too.
func threeHops(red bool) PathSpec {
	rate := &RateSchedule{Steps: []RateStep{{T: 0, Mult: 0.5}, {T: 1e6, Mult: 1}}}
	return PathSpec{
		Name: "p",
		Forward: []Hop{
			{CapacityBps: 100e6, PropDelay: 0.001, BufferBytes: 64 * 1500, RED: red, Rate: rate},
			{CapacityBps: 10e6, PropDelay: 0.005, BufferBytes: 8 * 1500, RED: red},
			{CapacityBps: 100e6, PropDelay: 0.001, BufferBytes: 64 * 1500, RED: red},
		},
	}
}

func TestPathForwardingAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		red     bool
		reverse bool
	}{
		{"droptail/forward", false, false},
		{"droptail/reverse", false, true},
		{"red/forward", true, false},
		{"red/reverse", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			p := NewPath(eng, sim.NewRNG(3), threeHops(tc.red))
			from, chain := p.A, p.Fwd
			if tc.reverse {
				from, chain = p.B, p.Rev
			}
			// A 16-packet burst overruns the 8-packet bottleneck, so the
			// drop sites (tail drop, RED) are on the measured path as well
			// as forwarding. Flow 7 is unregistered: the far demux recycles.
			burst := func() {
				for i := 0; i < 16; i++ {
					pkt := from.NewPacket()
					pkt.Flow, pkt.Kind, pkt.Size = 7, KindData, 1500
					from.Send(pkt)
				}
				eng.Run()
			}
			burst() // warm-up: grows the arena, the FIFOs and the pool
			if got := testing.AllocsPerRun(50, burst); got != 0 {
				t.Errorf("%v allocs per 16-packet burst, want 0", got)
			}
			var drops, departures int64
			for _, q := range chain {
				drops += q.Stats().Drops
				departures += q.Stats().Departures
			}
			if drops == 0 || departures == 0 {
				t.Errorf("burst exercised drops=%d departures=%d; want both > 0", drops, departures)
			}
		})
	}
	// BenchmarkQueueForwarding's queue: built alone rather than by NewPath,
	// so it has no pool of its own, and forwarding into a pool the caller
	// owns. Its buffer never fills, so only forwarding is measured.
	t.Run("single-queue", func(t *testing.T) {
		eng := sim.NewEngine()
		pool := &PacketPool{}
		q := NewQueue(eng, sim.NewRNG(1), 1e12, 0, 1<<30, ReceiverFunc(pool.Put))
		burst := func() {
			for i := 0; i < 16; i++ {
				pkt := pool.Get()
				pkt.Size = 1500
				q.Receive(pkt)
			}
			eng.Run()
		}
		burst()
		if got := testing.AllocsPerRun(50, burst); got != 0 {
			t.Errorf("%v allocs per 16-packet burst, want 0", got)
		}
		if st := q.Stats(); st.Drops != 0 || st.Departures != st.Arrivals {
			t.Errorf("queue dropped %d and forwarded %d of %d packets; want all forwarded",
				st.Drops, st.Departures, st.Arrivals)
		}
	})
}

func TestDelayReceiverAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	pool := &PacketPool{}
	d := NewDelayReceiver(eng, 0.01, ReceiverFunc(pool.Put))
	send := func() {
		d.Receive(pool.Get())
		eng.Run()
	}
	send()
	if got := testing.AllocsPerRun(100, send); got != 0 {
		t.Errorf("%v allocs per delayed packet, want 0", got)
	}
}

func TestSourcesAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(eng *sim.Engine, out Receiver)
	}{
		{"poisson", func(eng *sim.Engine, out Receiver) {
			NewPoissonSource(eng, sim.NewRNG(6), 11, 4e6, 1000, nil, out).Start()
		}},
		{"pareto", func(eng *sim.Engine, out Receiver) {
			NewParetoOnOffSource(eng, sim.NewRNG(6), 12, 8e6, 1000, 0.05, 0.05, 1.5, nil, out).Start()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			p := NewPath(eng, sim.NewRNG(5), onePathHop())
			tc.start(eng, p.Fwd[0])
			eng.RunUntil(5) // warm-up
			before := p.Fwd[0].Stats().Arrivals
			// Each run is one simulated second: hundreds of packets and,
			// for Pareto, several ON/OFF cycles.
			got := testing.AllocsPerRun(20, func() { eng.RunUntil(eng.Now() + 1) })
			if got != 0 {
				t.Errorf("%v allocs per simulated second of cross traffic, want 0", got)
			}
			if sent := p.Fwd[0].Stats().Arrivals - before; sent < 2000 {
				t.Errorf("only %d packets emitted while measuring", sent)
			}
		})
	}
}
