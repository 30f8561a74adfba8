package netem

import (
	"testing"

	"repro/internal/sim"
)

func TestRateScheduleAt(t *testing.T) {
	var nilSched *RateSchedule
	if got := nilSched.At(5); got != 1 {
		t.Errorf("nil schedule At = %v, want 1", got)
	}
	empty := &RateSchedule{}
	if got := empty.At(5); got != 1 {
		t.Errorf("empty schedule At = %v, want 1", got)
	}
	s := &RateSchedule{Steps: []RateStep{{T: 2, Mult: 0.5}, {T: 5, Mult: 0.25}, {T: 9, Mult: 1.0}}}
	for _, tc := range []struct{ t, want float64 }{
		{0, 1}, {1.999, 1}, // before the first step: nominal
		{2, 0.5}, {4.9, 0.5}, // step boundaries are inclusive
		{5, 0.25}, {8.999, 0.25},
		{9, 1}, {1e6, 1}, // last step holds forever
	} {
		if got := s.At(tc.t); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestRateScheduleFloor(t *testing.T) {
	// A zero or negative multiplier must not stall the queue forever: the
	// effective rate floors at a small positive value.
	s := &RateSchedule{Steps: []RateStep{{T: 1, Mult: 0}}}
	if got := s.At(2); got <= 0 {
		t.Errorf("At over a zero step = %v, want a positive floor", got)
	}
}

// TestQueueHonorsRateSchedule checks transmission times stretch by the
// schedule's multiplier — a saturated queue under a 50% fade drains at
// half rate — and that a mid-run step changes the drain rate from the
// step time onward.
func TestQueueHonorsRateSchedule(t *testing.T) {
	drained := func(rate *RateSchedule, until float64) int {
		eng := sim.NewEngine()
		delivered := 0
		q := NewQueue(eng, nil, 8e6, 0, 1<<30, ReceiverFunc(func(p *Packet) { delivered += p.Size }))
		q.Rate = rate
		for i := 0; i < 4000; i++ {
			q.Receive(&Packet{Size: 1000, Seq: int64(i)})
		}
		eng.RunUntil(until)
		return delivered
	}
	full := drained(nil, 2)
	faded := drained(&RateSchedule{Steps: []RateStep{{T: 0, Mult: 0.5}}}, 2)
	if lo, hi := full*4/10, full*6/10; faded < lo || faded > hi {
		t.Errorf("50%% fade drained %d bytes vs nominal %d, want ≈half", faded, full)
	}
	// Fade starting at t=1: first second at full rate, second at half —
	// expect ≈3/4 of the nominal two-second drain.
	stepped := drained(&RateSchedule{Steps: []RateStep{{T: 1, Mult: 0.5}}}, 2)
	if lo, hi := full*65/100, full*85/100; stepped < lo || stepped > hi {
		t.Errorf("mid-run fade drained %d bytes vs nominal %d, want ≈3/4", stepped, full)
	}
}
