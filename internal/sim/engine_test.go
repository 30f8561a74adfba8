package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// pending is the number of live events scheduled: cancelled timers still
// in the heap do not count.
func pending(e *Engine) int { return len(e.heap) - e.canceled }

func TestEngineOrdering(t *testing.T) {
	eng := NewEngine()
	var fired []float64
	for _, d := range []float64{0.5, 0.1, 0.3, 0.2, 0.4} {
		d := d
		eng.Schedule(d, func() { fired = append(fired, d) })
	}
	eng.Run()
	if !sort.Float64sAreSorted(fired) {
		t.Errorf("events fired out of order: %v", fired)
	}
	if len(fired) != 5 {
		t.Errorf("fired %d events, want 5", len(fired))
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	eng := NewEngine()
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(1.0, func() { fired = append(fired, i) })
	}
	eng.Run()
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", fired)
		}
	}
}

func TestEngineClockAdvances(t *testing.T) {
	eng := NewEngine()
	var at float64
	eng.Schedule(2.5, func() { at = eng.Now() })
	eng.Run()
	if at != 2.5 {
		t.Errorf("event saw clock %v, want 2.5", at)
	}
	if eng.Now() != 2.5 {
		t.Errorf("final clock %v, want 2.5", eng.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	eng := NewEngine()
	fired := 0
	eng.Schedule(1, func() { fired++ })
	eng.Schedule(2, func() { fired++ })
	eng.Schedule(3, func() { fired++ })
	eng.RunUntil(2.5)
	if fired != 2 {
		t.Errorf("fired %d events by t=2.5, want 2", fired)
	}
	if eng.Now() != 2.5 {
		t.Errorf("clock %v after RunUntil(2.5)", eng.Now())
	}
	eng.RunUntil(10)
	if fired != 3 {
		t.Errorf("fired %d events total, want 3", fired)
	}
	// A horizon already in the past does not pull the clock back.
	eng.Schedule(5, func() {})
	eng.RunUntil(3)
	if eng.Now() != 10 {
		t.Errorf("Now = %v after RunUntil(3) at t=10, want 10", eng.Now())
	}
}

func TestEngineRunUntilIdleAdvancesClock(t *testing.T) {
	eng := NewEngine()
	eng.RunUntil(7)
	if eng.Now() != 7 {
		t.Errorf("clock %v, want 7 even with no events", eng.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	eng := NewEngine()
	fired := false
	tm := eng.Schedule(1, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Cancel() {
		t.Fatal("first cancel should report true")
	}
	if tm.Cancel() {
		t.Fatal("second cancel should report false")
	}
	eng.Run()
	if fired {
		t.Error("cancelled timer fired")
	}
}

func TestCancelFromEvent(t *testing.T) {
	eng := NewEngine()
	fired := false
	victim := eng.Schedule(2, func() { fired = true })
	eng.Schedule(1, func() { victim.Cancel() })
	eng.Run()
	if fired {
		t.Error("timer cancelled by earlier event still fired")
	}
}

func TestScheduleInsideEvent(t *testing.T) {
	eng := NewEngine()
	var times []float64
	eng.Schedule(1, func() {
		eng.Schedule(1, func() { times = append(times, eng.Now()) })
	})
	eng.Run()
	if len(times) != 1 || times[0] != 2 {
		t.Errorf("nested event times = %v, want [2]", times)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	eng := NewEngine()
	eng.RunUntil(5)
	fired := false
	eng.Schedule(-1, func() { fired = true })
	eng.Run()
	if !fired {
		t.Error("negative-delay event did not fire")
	}
}

func TestAtPastPanics(t *testing.T) {
	eng := NewEngine()
	eng.RunUntil(5)
	defer func() {
		if recover() == nil {
			t.Error("At in the past did not panic")
		}
	}()
	eng.At(1, func() {})
}

func TestNilHandlerPanics(t *testing.T) {
	eng := NewEngine()
	for name, schedule := range map[string]func(){
		"At":          func() { eng.At(1, nil) },
		"Schedule":    func() { eng.Schedule(1, nil) },
		"ScheduleArg": func() { eng.ScheduleArg(1, nil, eng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a nil handler did not panic", name)
				}
			}()
			schedule()
		}()
	}
	if pending(eng) != 0 {
		t.Errorf("a rejected call left %d events scheduled", pending(eng))
	}
}

func TestPendingSkipsCancelled(t *testing.T) {
	eng := NewEngine()
	var timers []Timer
	for i := 0; i < 10; i++ {
		timers = append(timers, eng.Schedule(float64(i+1), func() {}))
	}
	if pending(eng) != 10 {
		t.Fatalf("Pending = %d, want 10", pending(eng))
	}
	for _, tm := range timers[:4] {
		tm.Cancel()
	}
	if pending(eng) != 6 {
		t.Errorf("Pending = %d after 4 cancels, want 6", pending(eng))
	}
	eng.RunUntil(5) // fires timers 5 (others cancelled), pops some cancelled ones
	if pending(eng) != 5 {
		t.Errorf("Pending = %d after RunUntil(5), want 5", pending(eng))
	}
	eng.Run()
	if pending(eng) != 0 {
		t.Errorf("Pending = %d after Run, want 0", pending(eng))
	}
}

// TestHeapCompaction cancels far more timers than it fires — the RTO
// re-arm pattern — and checks the heap sheds the dead entries while the
// surviving timers still fire in order.
func TestHeapCompaction(t *testing.T) {
	eng := NewEngine()
	var fired []float64
	var cancelled []Timer
	const n = 1000
	for i := 0; i < n; i++ {
		at := float64(i + 1)
		if i%10 == 0 {
			eng.At(at, func() { fired = append(fired, at) })
			continue
		}
		cancelled = append(cancelled, eng.At(at, func() { t.Errorf("cancelled timer at %v fired", at) }))
	}
	for _, tm := range cancelled {
		tm.Cancel()
	}
	// Compaction must have dropped the dead entries from the heap.
	if got := len(eng.heap); got > n/5 {
		t.Errorf("heap holds %d entries after mass cancel, want ≤ %d", got, n/5)
	}
	if pending(eng) != n/10 {
		t.Errorf("Pending = %d, want %d", pending(eng), n/10)
	}
	eng.Run()
	if len(fired) != n/10 {
		t.Fatalf("fired %d events, want %d", len(fired), n/10)
	}
	if !sort.Float64sAreSorted(fired) {
		t.Errorf("post-compaction events fired out of order")
	}
}

// TestCompactionPreservesFIFO checks that compaction keeps the
// same-instant FIFO guarantee the engine's determinism rests on.
func TestCompactionPreservesFIFO(t *testing.T) {
	eng := NewEngine()
	var fired []int
	var cancelled []Timer
	for i := 0; i < 200; i++ {
		i := i
		eng.At(5, func() { fired = append(fired, i) })
		cancelled = append(cancelled, eng.At(1, func() {}))
	}
	for _, tm := range cancelled {
		tm.Cancel()
	}
	eng.Run()
	if len(fired) != 200 {
		t.Fatalf("fired %d, want 200", len(fired))
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-time events not FIFO after compaction: fired[%d] = %d", i, v)
		}
	}
}

func TestCancelledTimerNotPendingAfterPop(t *testing.T) {
	eng := NewEngine()
	tm := eng.Schedule(1, func() {})
	eng.Schedule(2, func() {})
	tm.Cancel()
	eng.Run()
	if tm.Pending() {
		t.Error("cancelled timer still reports pending after run")
	}
	if tm.Cancel() {
		t.Error("re-cancel of dead timer reported true")
	}
}

func TestProcessedSince(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 5; i++ {
		eng.Schedule(float64(i), func() {})
	}
	eng.RunUntil(2)
	mark := eng.Processed()
	if n := eng.ProcessedSince(mark); n != 0 {
		t.Errorf("ProcessedSince(now) = %d, want 0", n)
	}
	eng.Run()
	if n := eng.ProcessedSince(mark); n != 2 {
		t.Errorf("ProcessedSince = %d, want 2", n)
	}
}

func TestProcessedCount(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 7; i++ {
		eng.Schedule(float64(i), func() {})
	}
	eng.Run()
	if eng.Processed() != 7 {
		t.Errorf("processed %d, want 7", eng.Processed())
	}
}

// TestEventOrderProperty: for any set of non-negative delays, execution
// order is non-decreasing in time.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		eng := NewEngine()
		var fired []float64
		for _, r := range raw {
			d := float64(r) / 100
			eng.Schedule(d, func() { fired = append(fired, d) })
		}
		eng.Run()
		return len(fired) == len(raw) && sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.r.Float64() != b.r.Float64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.r.Float64() != c.r.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	f1 := parent.Fork()
	f2 := parent.Fork()
	same := true
	for i := 0; i < 20; i++ {
		if f1.r.Float64() != f2.r.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Error("sibling forks produced identical streams")
	}
}

func TestExpMean(t *testing.T) {
	rng := NewRNG(1)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += rng.Exp(2.5)
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Errorf("Exp mean %.3f, want ≈2.5", mean)
	}
}

func TestParetoProperties(t *testing.T) {
	rng := NewRNG(1)
	const alpha, xm = 1.5, 2.0
	var sum float64
	const n = 500000
	for i := 0; i < n; i++ {
		v := rng.Pareto(alpha, xm)
		if v < xm {
			t.Fatalf("Pareto sample %v below scale %v", v, xm)
		}
		sum += v
	}
	// E[X] = xm·α/(α-1) = 6. The heavy tail converges slowly; allow 10%.
	mean := sum / n
	want := xm * alpha / (alpha - 1)
	if math.Abs(mean-want) > want*0.1 {
		t.Errorf("Pareto mean %.3f, want ≈%.1f", mean, want)
	}
}

func TestUniformRange(t *testing.T) {
	rng := NewRNG(3)
	f := func(a, b uint16) bool {
		lo, hi := float64(a), float64(a)+float64(b)+1
		v := rng.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeriveSeedDistinctStreams(t *testing.T) {
	// Seed 0 must be as valid as any other: no stream may collapse to a
	// constant or collide with another stream's seed.
	for _, base := range []int64{0, 1, 7, -3, 1 << 40} {
		seen := map[int64]uint64{}
		for stream := uint64(0); stream < 2000; stream++ {
			s := DeriveSeed(base, stream)
			if prev, dup := seen[s]; dup {
				t.Fatalf("base %d: streams %d and %d derive the same seed %d", base, prev, stream, s)
			}
			seen[s] = stream
		}
	}
	if DeriveSeed(0, 0) == 0 {
		t.Error("DeriveSeed(0, 0) is 0; zero seed not scrambled")
	}
	if DeriveSeed(0, 1) == DeriveSeed(1, 1) {
		t.Error("different base seeds derive identical stream seeds")
	}
}
