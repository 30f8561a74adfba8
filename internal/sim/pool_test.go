package sim

import (
	"sort"
	"testing"
)

// TestStaleHandleAfterFire: once a timer fires, its arena node is recycled
// for later events. The fired timer's handle must become inert — Cancel
// and Pending report false — and must NOT reach through to whichever new
// timer now occupies the slot.
func TestStaleHandleAfterFire(t *testing.T) {
	eng := NewEngine()
	fired := 0
	t1 := eng.Schedule(1, func() { fired++ })
	eng.Run()
	if fired != 1 {
		t.Fatalf("timer did not fire")
	}
	if t1.Pending() {
		t.Error("fired timer reports pending")
	}
	if t1.Cancel() {
		t.Error("Cancel on fired timer reported true")
	}

	// The next schedule reuses t1's node (single-timer workload).
	t2 := eng.Schedule(1, func() { fired++ })
	if !t2.Pending() {
		t.Fatal("fresh timer not pending")
	}
	// The stale handle must not cancel (or otherwise perturb) the new
	// occupant of the recycled slot.
	if t1.Cancel() {
		t.Error("stale handle cancelled a recycled timer")
	}
	if t1.Pending() {
		t.Error("stale handle sees the recycled timer as its own")
	}
	eng.Run()
	if fired != 2 {
		t.Errorf("recycled-slot timer killed by stale handle: fired=%d, want 2", fired)
	}
}

// TestStaleHandleAfterCancelAndDrain: a cancelled timer's node is recycled
// once its dead heap entry is popped (or compacted away). The old handle
// must stay inert across the reuse, and re-Cancel must keep reporting
// false rather than double-decrementing the engine's cancel bookkeeping.
func TestStaleHandleAfterCancelAndDrain(t *testing.T) {
	eng := NewEngine()
	t1 := eng.Schedule(1, func() { t.Error("cancelled timer fired") })
	eng.Schedule(2, func() {})
	if !t1.Cancel() {
		t.Fatal("first cancel failed")
	}
	eng.Run() // pops the dead entry, node goes to the free list

	fired := false
	t2 := eng.Schedule(1, func() { fired = true })
	if t1.Cancel() {
		t.Error("stale cancelled handle re-cancelled after node reuse")
	}
	if t1.Pending() {
		t.Error("stale cancelled handle pending after node reuse")
	}
	if !t2.Pending() {
		t.Error("recycled timer not pending")
	}
	eng.Run()
	if !fired {
		t.Error("recycled timer did not fire")
	}
}

// TestZeroTimerInert: the zero Timer is a valid inert handle.
func TestZeroTimerInert(t *testing.T) {
	var tm Timer
	if tm.Cancel() {
		t.Error("zero Timer Cancel reported true")
	}
	if tm.Pending() {
		t.Error("zero Timer reports pending")
	}
}

// TestFreeListRecyclesNodes: a schedule→fire→schedule loop must not grow
// the arena beyond the live set — the free list, not the allocator, feeds
// steady-state scheduling.
func TestFreeListRecyclesNodes(t *testing.T) {
	eng := NewEngine()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < 10000 {
			eng.Schedule(0.001, fn)
		}
	}
	eng.Schedule(0.001, fn)
	eng.Run()
	if n != 10000 {
		t.Fatalf("ran %d events", n)
	}
	if got := len(eng.nodes); got > 4 {
		t.Errorf("arena grew to %d nodes for a 1-live-timer workload", got)
	}
}

// TestCompactionFreesCancelledNodes: maybeCompact must return the dead
// entries' nodes to the free list (cancellation feeds the recycler, not
// just firing), and the compacted heap must still fire survivors in order.
func TestCompactionFreesCancelledNodes(t *testing.T) {
	eng := NewEngine()
	var fired []float64
	var doomed []Timer
	const n = 2000
	for i := 0; i < n; i++ {
		at := float64(i + 1)
		if i%10 == 0 {
			eng.At(at, func() { fired = append(fired, at) })
			continue
		}
		doomed = append(doomed, eng.At(at, func() { t.Errorf("cancelled timer at %v fired", at) }))
	}
	for _, tm := range doomed {
		tm.Cancel()
	}
	if got := len(eng.heap); got > n/5 {
		t.Errorf("heap holds %d entries after mass cancel, want ≤ %d", got, n/5)
	}
	if got := len(eng.free); got < n/2 {
		t.Errorf("free list has %d nodes after compaction, want ≥ %d (cancelled nodes not recycled)", got, n/2)
	}
	// Handles into compacted-away nodes must be inert even after the slots
	// are re-issued to new timers.
	reused := 0
	for i := 0; i < n/2; i++ {
		eng.At(5000+float64(i), func() {}) // repopulates from the free list
		reused++
	}
	for _, tm := range doomed {
		if tm.Cancel() || tm.Pending() {
			t.Fatal("handle of compacted timer resurrected after slot reuse")
		}
	}
	eng.RunUntil(4999)
	if len(fired) != n/10 {
		t.Fatalf("fired %d events, want %d", len(fired), n/10)
	}
	if !sort.Float64sAreSorted(fired) {
		t.Error("post-compaction events fired out of order")
	}
	if pending(eng) != reused {
		t.Errorf("Pending = %d, want %d", pending(eng), reused)
	}
}

// TestCancelHeavyChurn is the RTO re-arm pattern at scale: every event
// schedules a far-future timer and cancels the previous one. The heap and
// arena must stay bounded and the live timers must keep firing in order.
func TestCancelHeavyChurn(t *testing.T) {
	eng := NewEngine()
	var last Timer
	n := 0
	var tick func()
	tick = func() {
		n++
		last.Cancel()
		last = eng.Schedule(1000, func() { t.Error("RTO fired") })
		if n < 50000 {
			eng.Schedule(0.01, tick)
		}
	}
	eng.Schedule(0.01, tick)
	eng.RunUntil(999)
	if n != 50000 {
		t.Fatalf("ran %d ticks", n)
	}
	last.Cancel()
	if got := len(eng.heap); got > 256 {
		t.Errorf("heap grew to %d entries under cancel churn", got)
	}
	if got := len(eng.nodes); got > 512 {
		t.Errorf("arena grew to %d nodes under cancel churn", got)
	}
	eng.Run()
}

// TestArgTimerHandles: Cancel, Pending and the stale-handle fence behave for
// arg-form timers exactly as for plain ones, and the handler receives the
// argument it was scheduled with.
func TestArgTimerHandles(t *testing.T) {
	eng := NewEngine()
	var got []any
	collect := func(a any) { got = append(got, a) }
	x, y := new(int), new(int)

	t1 := eng.ScheduleArg(1, collect, x)
	t2 := eng.ScheduleArg(2, collect, y)
	if !t1.Pending() || !t2.Pending() || pending(eng) != 2 {
		t.Fatal("fresh arg timers not pending")
	}
	if !t2.Cancel() || t2.Cancel() || t2.Pending() {
		t.Error("Cancel on an arg timer: want true once, then inert")
	}
	eng.Run()
	if len(got) != 1 || got[0] != any(x) {
		t.Fatalf("handler saw %v, want exactly the first timer's argument", got)
	}
	// Both nodes are recycled now; the old handles must not reach the new
	// occupants.
	t3 := eng.ScheduleArg(1, collect, y)
	t4 := eng.Schedule(1, func() {})
	if t1.Cancel() || t2.Cancel() || t1.Pending() || t2.Pending() {
		t.Error("stale arg-timer handle reached a recycled node")
	}
	if !t3.Pending() || !t4.Pending() {
		t.Error("recycled timers disturbed by stale handles")
	}
	// Negative and NaN delays clamp to "now", as with Schedule.
	eng.ScheduleArg(-1, collect, x)
	eng.Run()
	if len(got) != 3 || got[1] != any(x) || got[2] != any(y) {
		t.Errorf("after clamp + recycle the handler saw %v", got)
	}
}

// TestFreedNodesDropArg: a node must not keep its argument (in the
// simulator: a *Packet that has since been recycled) alive once the timer
// has fired, its cancelled entry has been popped, or compaction has swept
// it away. Every arena node outside the heap must hold neither handler nor
// argument.
func TestFreedNodesDropArg(t *testing.T) {
	eng := NewEngine()
	noop := func(any) {}
	checkFree := func(when string) {
		t.Helper()
		inHeap := make(map[int32]bool, len(eng.heap))
		for _, en := range eng.heap {
			inHeap[en.node] = true
		}
		for i := range eng.nodes {
			if nd := &eng.nodes[i]; !inHeap[int32(i)] && (nd.fn != nil || nd.arg != nil) {
				t.Fatalf("%s: free node %d retains fn/arg (%v)", when, i, nd.arg)
			}
		}
	}

	eng.ScheduleArg(1, noop, new(int))
	eng.Run()
	checkFree("after firing")

	eng.ScheduleArg(1, noop, new(int)).Cancel()
	eng.ScheduleArg(2, noop, new(int))
	eng.Run() // pops the dead entry on the way to the live one
	checkFree("after popping a cancelled entry")

	keep := eng.ScheduleArg(5000, noop, new(int))
	for i := 0; i < 500; i++ {
		eng.ScheduleArg(float64(10+i), noop, new(int)).Cancel()
	}
	if len(eng.heap) > 100 {
		t.Fatalf("compaction did not run: heap holds %d entries", len(eng.heap))
	}
	checkFree("after compaction")
	if !keep.Pending() {
		t.Error("compaction dropped the live timer")
	}
}
