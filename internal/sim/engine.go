// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of scheduled
// events. Events scheduled for the same instant fire in scheduling order,
// which makes simulation runs bit-for-bit reproducible for a given seed.
// All times are float64 seconds of virtual time.
//
// The event queue is an inlined, monomorphic 4-ary min-heap over small
// value entries (no container/heap indirection), and timer state lives in
// an arena recycled through a free list, so the engine itself never
// allocates in steady state. A closure or method value built at the call
// site is still one heap object per event; per-packet and per-tick paths
// pass a handler bound once (ScheduleArg with a pointer argument, or
// Schedule with a stored func()). See DESIGN.md §10 for the layout and the
// free-list invariants.
package sim

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// Timer is a handle to a scheduled event, returned by value: it is two
// words and allocation-free to create, copy, and discard. The zero Timer
// is valid and inert — Cancel and Pending on it report false — so struct
// fields of type Timer need no "is there a timer?" sentinel.
//
// Handles are generation-checked: once the underlying timer fires or its
// cancelled entry leaves the heap, the engine recycles the timer's arena
// slot for future events, and every operation through a stale handle
// becomes a no-op (Cancel reports false, Pending reports false) rather
// than touching whichever new timer now occupies the slot.
type Timer struct {
	eng  *Engine
	node int32 // arena index + 1; 0 marks the zero (inert) handle
	gen  uint32
}

// Cancel prevents the timer from firing. It reports whether the timer was
// still pending (and is now cancelled). Cancelling an already-fired,
// already-cancelled, or zero timer is a no-op that reports false.
// Cancelled timers stay in the event heap until popped or compacted; the
// engine counts them so that the heap cannot fill up with dead entries.
func (t Timer) Cancel() bool {
	if !t.Pending() {
		return false
	}
	e := t.eng
	e.nodes[t.node-1].canceled = true
	e.canceled++
	e.maybeCompact()
	return true
}

// Pending reports whether the timer is still scheduled and not cancelled.
func (t Timer) Pending() bool {
	e := t.eng
	if e == nil || t.node == 0 {
		return false
	}
	nd := &e.nodes[t.node-1]
	return nd.gen == t.gen && !nd.canceled
}

// timerNode is the arena-resident state of one scheduled event: a handler
// and its argument. Nodes are recycled through the engine's free list:
// when an event fires or a cancelled entry leaves the heap, the node's
// generation is bumped (invalidating all outstanding handles), its handler
// and argument references are dropped, and the slot becomes available for
// the next scheduling call. A node's generation matches a handle's exactly
// while its entry is in the heap, so handles need no other "queued" flag.
// Nobody — not the firing callback, not a retained Timer handle — may
// reach a released node's state: handles are fenced by the generation
// check, and the engine reads everything it needs (handler, argument,
// firing time) before releasing.
type timerNode struct {
	fn       func(any)
	arg      any
	gen      uint32
	canceled bool
}

// callFunc is the handler behind Schedule/At: the func() rides in the
// argument slot (boxing a func value does not allocate), so there is one
// node layout and one dispatch in Step.
func callFunc(a any) { a.(func())() }

// heapEntry is one event-queue slot: the (at, seq) ordering key inline —
// so heap comparisons touch no other memory — plus the arena index of the
// timer's node.
type heapEntry struct {
	at   float64
	seq  uint64
	node int32
}

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now       float64
	seq       uint64
	heap      []heapEntry
	nodes     []timerNode
	free      []int32
	processed uint64
	canceled  int // cancelled timers still sitting in the heap
	span      *obs.Span
}

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// ProcessedSince returns the number of events executed since mark, where
// mark is a value previously returned by Processed. It lets callers meter
// individual run segments (one epoch, one transfer) without the engine
// having to know about segment boundaries.
func (e *Engine) ProcessedSince(mark uint64) uint64 { return e.processed - mark }

// Schedule runs fn after delay seconds of virtual time. A negative delay is
// treated as zero. It returns a Timer that may be cancelled.
func (e *Engine) Schedule(delay float64, fn func()) Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.ScheduleArg(delay, callFunc, fn)
}

// ScheduleArg runs fn(arg) after delay seconds of virtual time, ordered
// and clamped like Schedule. It is the form for per-packet paths: with fn
// bound once at construction and arg a pointer, scheduling allocates
// nothing, where a closure capturing the pointer costs one object per
// event. The engine drops arg when the timer fires or is recycled.
func (e *Engine) ScheduleArg(delay float64, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	return e.at(e.now+delay, fn, arg)
}

// At runs fn at absolute virtual time t. Scheduling in the past panics,
// since it indicates a logic error in the caller.
//
// Each scheduled event consumes one value of the engine's sequence
// counter, which increases monotonically for the lifetime of the engine —
// it is never reset when timer nodes are recycled, so the (at, seq) total
// order spans every event the engine will ever schedule. The counter is a
// uint64; at the simulator's measured event rates (~10^7 events/s of wall
// time) exhausting it would take tens of thousands of years of continuous
// scheduling, so overflow is not a practical concern and is not checked on
// the hot path.
func (e *Engine) At(t float64, fn func()) Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.at(t, callFunc, fn)
}

func (e *Engine) at(t float64, fn func(any), arg any) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.nodes = append(e.nodes, timerNode{})
		idx = int32(len(e.nodes) - 1)
	}
	nd := &e.nodes[idx]
	nd.fn, nd.arg = fn, arg
	nd.canceled = false
	e.heapPush(heapEntry{at: t, seq: e.seq, node: idx})
	return Timer{eng: e, node: idx + 1, gen: nd.gen}
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		en := e.popRoot()
		nd := &e.nodes[en.node]
		if nd.canceled {
			e.canceled--
			e.freeNode(en.node)
			continue
		}
		// Release the node before running the callback: the callback's own
		// handle goes stale here (Cancel-after-fire is a no-op by
		// construction), and anything the callback schedules can reuse the
		// slot immediately.
		fn, arg := nd.fn, nd.arg
		e.freeNode(en.node)
		e.now = en.at
		e.processed++
		fn(arg)
		return true
	}
	return false
}

// SetSpan attaches a parent observability span to the engine: every
// Run/RunUntil segment records a "sim.run" child span carrying the
// number of events it processed, so a trace shows where a campaign's
// virtual time was spent. Callers move the parent as they enter new
// phases (warmup, pathload, transfer …) and detach with SetSpan(nil).
// A nil span (the default) reduces the instrumentation to one
// predictable branch per run call — never per event — which is why it
// can stay compiled into the hot loop without moving the benchmarks.
func (e *Engine) SetSpan(parent *obs.Span) { e.span = parent }

// runSpan opens the per-segment span when a parent is attached.
func (e *Engine) runSpan() (*obs.Span, uint64) {
	if e.span == nil {
		return nil, 0
	}
	return e.span.Child("sim.run"), e.processed
}

func (e *Engine) endRunSpan(sp *obs.Span, mark uint64) {
	if sp == nil {
		return
	}
	sp.AddCount(int64(e.processed - mark))
	sp.End()
}

// RunUntil executes events in order until the clock would pass t or no
// events remain. The clock then ends at exactly t, unless t is already
// past. (It stays put when only cancelled timers were left; pinned outputs
// depend on that.)
func (e *Engine) RunUntil(t float64) {
	sp, mark := e.runSpan()
	defer e.endRunSpan(sp, mark)
	for len(e.heap) > 0 {
		next, ok := e.peek()
		if !ok {
			return
		}
		if next.at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Run executes all pending events until none remain.
func (e *Engine) Run() {
	sp, mark := e.runSpan()
	for e.Step() {
	}
	e.endRunSpan(sp, mark)
}

// peek returns the next live (non-cancelled) entry without executing it,
// discarding dead entries from the top of the heap along the way.
func (e *Engine) peek() (heapEntry, bool) {
	for len(e.heap) > 0 {
		en := e.heap[0]
		if !e.nodes[en.node].canceled {
			return en, true
		}
		e.popRoot()
		e.canceled--
		e.freeNode(en.node)
	}
	return heapEntry{}, false
}

// freeNode returns a node to the free list: the generation bump fences off
// every outstanding handle, and dropping fn and arg releases the callback
// (and whatever its closure captured, or the packet it was to deliver)
// without waiting for the whole arena to become garbage.
func (e *Engine) freeNode(idx int32) {
	nd := &e.nodes[idx]
	nd.fn, nd.arg = nil, nil
	nd.canceled = false
	nd.gen++
	e.free = append(e.free, idx)
}

// heapPush appends an entry and restores the heap order. The heap is
// 4-ary: parent(i) = (i-1)/4, children(i) = 4i+1..4i+4. Compared with the
// binary heap it halves the tree depth (fewer cache lines touched per
// operation) at the cost of up to three extra comparisons per level on the
// way down — a win for the pop-heavy event loop. Because (at, seq) is a
// strict total order (seq is unique), any heap arity pops events in the
// identical sequence, so determinism is arity-independent.
func (e *Engine) heapPush(en heapEntry) {
	e.heap = append(e.heap, en)
	e.siftUp(len(e.heap) - 1)
}

func (e *Engine) siftUp(i int) {
	en := e.heap[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(en, e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		i = p
	}
	e.heap[i] = en
}

func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	en := e.heap[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(e.heap[j], e.heap[m]) {
				m = j
			}
		}
		if !entryLess(e.heap[m], en) {
			break
		}
		e.heap[i] = e.heap[m]
		i = m
	}
	e.heap[i] = en
}

// popRoot removes and returns the minimum entry.
func (e *Engine) popRoot() heapEntry {
	root := e.heap[0]
	last := len(e.heap) - 1
	if last > 0 {
		e.heap[0] = e.heap[last]
		e.heap = e.heap[:last]
		e.siftDown(0)
	} else {
		e.heap = e.heap[:0]
	}
	return root
}

// maybeCompact rebuilds the event heap without cancelled timers once they
// dominate it, keeping heap operations O(log live) even for workloads
// that cancel timers far faster than they fire them (e.g. a TCP sender
// re-arming its RTO on every ACK). The dead entries' nodes go back to the
// free list here — cancellation, not just firing, feeds the recycler.
func (e *Engine) maybeCompact() {
	if e.canceled < 64 || e.canceled*2 < len(e.heap) {
		return
	}
	live := e.heap[:0]
	for _, en := range e.heap {
		if e.nodes[en.node].canceled {
			e.freeNode(en.node)
			continue
		}
		live = append(live, en)
	}
	e.heap = live
	for i := (len(e.heap) - 2) >> 2; i >= 0; i-- {
		e.siftDown(i)
	}
	e.canceled = 0
}
