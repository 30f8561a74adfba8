package sim

import "testing"

// The event loop's allocation contract: once the timer arena, its free
// list and the heap are warm, scheduling, firing and cancelling events
// costs no heap object. Handlers are bound once, outside the measured
// function, the way the simulator's per-packet paths bind theirs.

func TestEngineEventLoopAllocFree(t *testing.T) {
	t.Run("schedule-run", func(t *testing.T) {
		eng := NewEngine()
		fired := 0
		tick := func() { fired++ }
		// 64 events at scattered times: the heap sifts both ways.
		burst := func() {
			for i := 0; i < 64; i++ {
				eng.Schedule(float64(i*37%64)*1e-3, tick)
			}
			eng.Run()
		}
		burst()
		if got := testing.AllocsPerRun(50, burst); got != 0 {
			t.Errorf("%v allocs per 64-event burst, want 0", got)
		}
		if fired < 64*50 {
			t.Errorf("only %d events fired", fired)
		}
	})

	// The TCP RTO re-arm pattern: every step cancels the pending timeout,
	// arms a new one and schedules the next step, so nearly every timer
	// dies in the heap and is recycled through the free list.
	t.Run("schedule-cancel", func(t *testing.T) {
		eng := NewEngine()
		var rto Timer
		idle := func() {}
		steps := 0
		var step func()
		step = func() {
			steps++
			rto.Cancel()
			rto = eng.Schedule(10, idle)
			eng.Schedule(1e-3, step)
		}
		eng.Schedule(1e-3, step)
		churn := func() { eng.RunUntil(eng.Now() + 64e-3) }
		churn()
		before := steps
		if got := testing.AllocsPerRun(50, churn); got != 0 {
			t.Errorf("%v allocs per 64 schedule/cancel steps, want 0", got)
		}
		if n := steps - before; n < 60*50 {
			t.Errorf("only %d steps ran while measuring", n)
		}
	})
}
