package netem

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// drop is a Receiver that discards everything.
var drop Receiver = ReceiverFunc(func(*Packet) {})

func collector(got *[]*Packet) Receiver {
	return ReceiverFunc(func(p *Packet) { *got = append(*got, p) })
}

func TestQueueTransmissionTime(t *testing.T) {
	eng := sim.NewEngine()
	var got []*Packet
	var at []float64
	q := NewQueue(eng, sim.NewRNG(1), 8e6, 0, 1<<20, ReceiverFunc(func(p *Packet) {
		got = append(got, p)
		at = append(at, eng.Now())
	}))
	q.Receive(&Packet{Size: 1000})
	eng.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	// 1000 B at 8 Mbps = 1 ms.
	if math.Abs(at[0]-0.001) > 1e-12 {
		t.Errorf("delivery at %v, want 0.001", at[0])
	}
}

func TestQueuePropDelay(t *testing.T) {
	eng := sim.NewEngine()
	var at float64
	q := NewQueue(eng, nil, 8e6, 0.05, 1<<20, ReceiverFunc(func(*Packet) { at = eng.Now() }))
	q.Receive(&Packet{Size: 1000})
	eng.Run()
	want := 0.001 + 0.05
	if math.Abs(at-want) > 1e-12 {
		t.Errorf("delivery at %v, want %v", at, want)
	}
}

func TestQueueFIFOAndSerialization(t *testing.T) {
	eng := sim.NewEngine()
	var got []*Packet
	var at []float64
	q := NewQueue(eng, nil, 8e6, 0, 1<<20, ReceiverFunc(func(p *Packet) {
		got = append(got, p)
		at = append(at, eng.Now())
	}))
	for i := 0; i < 5; i++ {
		q.Receive(&Packet{Size: 1000, Seq: int64(i)})
	}
	eng.Run()
	if len(got) != 5 {
		t.Fatalf("delivered %d, want 5", len(got))
	}
	for i, p := range got {
		if p.Seq != int64(i) {
			t.Errorf("packet %d has seq %d (not FIFO)", i, p.Seq)
		}
		want := 0.001 * float64(i+1)
		if math.Abs(at[i]-want) > 1e-9 {
			t.Errorf("packet %d delivered at %v, want %v", i, at[i], want)
		}
	}
}

func TestQueueDropTail(t *testing.T) {
	eng := sim.NewEngine()
	var got []*Packet
	// Buffer of exactly 2 waiting packets (the transmitting one leaves the
	// buffer when transmission starts).
	q := NewQueue(eng, nil, 8e6, 0, 2000, collector(&got))
	for i := 0; i < 5; i++ {
		q.Receive(&Packet{Size: 1000, Seq: int64(i)})
	}
	eng.Run()
	st := q.Stats()
	if st.Arrivals != 5 {
		t.Errorf("arrivals %d, want 5", st.Arrivals)
	}
	if st.Drops == 0 {
		t.Error("expected droptail drops")
	}
	if int(st.Departures) != len(got) {
		t.Errorf("departures %d but delivered %d", st.Departures, len(got))
	}
	if st.Departures+st.Drops != st.Arrivals {
		t.Errorf("accounting broken: %+v", st)
	}
}

func TestQueuePacketCountLimit(t *testing.T) {
	eng := sim.NewEngine()
	var got []*Packet
	q := NewQueue(eng, nil, 8e6, 0, 1<<20, collector(&got))
	q.BufferPackets = 2
	// Small packets: byte buffer would accept all, packet limit drops.
	for i := 0; i < 6; i++ {
		q.Receive(&Packet{Size: 41})
	}
	eng.Run()
	if q.Stats().Drops == 0 {
		t.Error("packet-count limit did not drop")
	}
}

func TestQueueRandomLoss(t *testing.T) {
	eng := sim.NewEngine()
	var got []*Packet
	q := NewQueue(eng, sim.NewRNG(1), 80e6, 0, 1<<24, collector(&got))
	q.LossProb = 0.1
	const n = 20000
	for i := 0; i < n; i++ {
		q.Receive(&Packet{Size: 100})
	}
	eng.Run()
	st := q.Stats()
	rate := float64(st.RandomLoss) / n
	if math.Abs(rate-0.1) > 0.01 {
		t.Errorf("random loss rate %.3f, want ≈0.1", rate)
	}
}

func TestQueueREDDropsRiseWithOccupancy(t *testing.T) {
	eng := sim.NewEngine()
	mk := func(arrivalGap float64) float64 {
		e := sim.NewEngine()
		q := NewQueue(e, sim.NewRNG(9), 8e6, 0, 100*1000, drop)
		q.RED = true
		n := 0
		var send func()
		send = func() {
			if n >= 5000 {
				return
			}
			n++
			q.Receive(&Packet{Size: 1000})
			e.Schedule(arrivalGap, send)
		}
		send()
		e.Run()
		st := q.Stats()
		return float64(st.Drops) / float64(st.Arrivals)
	}
	_ = eng
	light := mk(0.002)  // 0.5× capacity
	heavy := mk(0.0009) // ~1.1× capacity
	if light > 0.005 {
		t.Errorf("light load RED loss %.4f, want ~0", light)
	}
	if heavy <= light+0.01 {
		t.Errorf("heavy load RED loss %.4f not above light %.4f", heavy, light)
	}
}

// TestREDDropCurve pins the drop probability in each region of the curve:
// 0 at or below 0.15 of the buffer, linear up to 0.04 at 0.7 of it, and
// linear from there to 1 at a full buffer.
func TestREDDropCurve(t *testing.T) {
	const full = 100 * 1000
	for _, c := range []struct{ frac, want float64 }{
		{0, 0}, {0.1, 0}, {0.15, 0},
		{0.425, 0.02}, {0.7, 0.04},
		{0.85, 0.52}, {1, 1},
	} {
		if got := redDropProb(c.frac*full, full); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("drop probability at %.3g of the buffer = %v, want %v", c.frac, got, c.want)
		}
	}
}

func TestQueueBacklogTracksBytes(t *testing.T) {
	eng := sim.NewEngine()
	q := NewQueue(eng, nil, 8e6, 0, 1<<20, drop)
	q.Receive(&Packet{Size: 1000})
	q.Receive(&Packet{Size: 500})
	// First packet immediately starts transmitting (leaves the backlog).
	if q.qBytes != 500 {
		t.Errorf("backlog %d, want 500", q.qBytes)
	}
	eng.Run()
	if q.qBytes != 0 {
		t.Errorf("backlog %d after drain, want 0", q.qBytes)
	}
}

// TestQueueStatsCountEveryEvent: the counters see every arrival,
// departure and drop.
func TestQueueStatsCountEveryEvent(t *testing.T) {
	eng := sim.NewEngine()
	q := NewQueue(eng, nil, 8e6, 0, 1500, drop)
	q.Receive(&Packet{Size: 1000})
	q.Receive(&Packet{Size: 1000})
	q.Receive(&Packet{Size: 1000}) // drop: 1000 in service + 1000 waiting
	eng.Run()
	want := QueueStats{Arrivals: 3, Departures: 2, Drops: 1, BytesIn: 3000}
	if got := q.Stats(); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
}

func TestQueueInvalidConfigPanics(t *testing.T) {
	eng := sim.NewEngine()
	for _, tc := range []struct {
		cap float64
		buf int
	}{{0, 100}, {1e6, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewQueue(cap=%v,buf=%d) did not panic", tc.cap, tc.buf)
				}
			}()
			NewQueue(eng, nil, tc.cap, 0, tc.buf, drop)
		}()
	}
}

func TestQueueConservation(t *testing.T) {
	// Property: arrivals = departures + drops, bytes in = bytes out +
	// dropped bytes, regardless of arrival pattern.
	eng := sim.NewEngine()
	rng := sim.NewRNG(5)
	var got []*Packet
	q := NewQueue(eng, rng.Fork(), 2e6, 0.01, 8000, collector(&got))
	q.LossProb = 0.02
	n := 0
	var send func()
	send = func() {
		if n >= 3000 {
			return
		}
		n++
		q.Receive(&Packet{Size: 200 + rng.Intn(1300)})
		eng.Schedule(rng.Exp(0.002), send)
	}
	send()
	eng.Run()
	st := q.Stats()
	if st.Arrivals != st.Departures+st.Drops {
		t.Errorf("conservation violated: %+v", st)
	}
	if int64(len(got)) != st.Departures {
		t.Errorf("delivered %d != departures %d", len(got), st.Departures)
	}
}

func TestQueueReordering(t *testing.T) {
	eng := sim.NewEngine()
	var seqs []int64
	q := NewQueue(eng, sim.NewRNG(3), 8e6, 0.01, 1<<20, ReceiverFunc(func(p *Packet) {
		seqs = append(seqs, p.Seq)
	}))
	q.ReorderProb = 0.2
	for i := 0; i < 500; i++ {
		q.Receive(&Packet{Size: 1000, Seq: int64(i)})
	}
	eng.Run()
	if len(seqs) != 500 {
		t.Fatalf("delivered %d packets", len(seqs))
	}
	ooo := 0
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			ooo++
		}
	}
	if ooo == 0 {
		t.Error("no reordering observed at ReorderProb=0.2")
	}
	// Without reordering the same stream must arrive in order.
	eng2 := sim.NewEngine()
	var seqs2 []int64
	q2 := NewQueue(eng2, sim.NewRNG(3), 8e6, 0.01, 1<<20, ReceiverFunc(func(p *Packet) {
		seqs2 = append(seqs2, p.Seq)
	}))
	for i := 0; i < 500; i++ {
		q2.Receive(&Packet{Size: 1000, Seq: int64(i)})
	}
	eng2.Run()
	for i := 1; i < len(seqs2); i++ {
		if seqs2[i] < seqs2[i-1] {
			t.Fatal("reordering without ReorderProb")
		}
	}
}
