// Package campaign is the execution layer for measurement campaigns: it
// schedules independent trace jobs onto a bounded worker pool, plumbs
// context cancellation through them, isolates per-job faults (a panic in
// one job's simulation engine fails only that job, optionally retried with
// the same seed), and surfaces progress through an Observer.
//
// The package is deliberately generic — it knows about jobs, seeds and
// epochs, not about datasets — so the testbed layer builds on it without
// an import cycle, and future backends (sharded campaigns, remote
// collection) can reuse the same scheduling and observability machinery.
//
// Determinism contract: results are delivered by job index, never by
// completion order, so for jobs that are themselves deterministic in
// (Job, seed) the output is byte-identical regardless of Parallelism.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// Job identifies one schedulable unit of a campaign — typically one trace
// on one path. Index is the job's position in delivery order; Seed is the
// job's private RNG seed (retries reuse it, so a retried job replays the
// exact same simulation).
type Job struct {
	Index  int    // position in the campaign's job list and delivery order
	Path   string // path name, for labelling and observers
	Trace  int    // trace index on the path
	Seed   int64  // private seed; identical across retries
	Epochs int    // expected epochs, for progress/ETA (0 if unknown)
}

func (j Job) String() string { return fmt.Sprintf("%s#%d", j.Path, j.Trace) }

// PanicError is the error a recovered job panic is converted into.
type PanicError struct {
	Value any    // the value passed to panic
	At    string // file:line of the panicking frame, "" when unknown
}

func (e *PanicError) Error() string {
	if e.At == "" {
		return fmt.Sprintf("panic: %v", e.Value)
	}
	return fmt.Sprintf("panic at %s: %v", e.At, e.Value)
}

// JobError describes one failed job with its identity attached, so a
// campaign report can say exactly which path/trace/seed to replay.
type JobError struct {
	Job      Job
	Attempts int // how many times the job was tried
	Err      error
}

func (e *JobError) Error() string {
	return fmt.Sprintf("campaign: job %s (seed %d, attempt %d): %v", e.Job, e.Job.Seed, e.Attempts, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// Result is the outcome of one job. Value is meaningful only when Err is
// nil. Skipped jobs (campaign cancelled before they started) carry the
// context's error and zero Attempts.
type Result[T any] struct {
	Job      Job
	Value    T
	Err      error
	Attempts int
	Events   uint64  // simulation events reported via Reporter.Epoch
	VirtualS float64 // virtual seconds reported via Reporter.Epoch
}

// Func executes one job. It must honour ctx (abort between epochs and
// return ctx.Err()) and report per-epoch progress through rep. The same
// function may run concurrently for different jobs; each invocation must
// keep its state private (one simulation engine per job).
type Func[T any] func(ctx context.Context, job Job, rep *Reporter) (T, error)

// Runner executes a campaign's jobs on a worker pool.
type Runner[T any] struct {
	// Parallelism is the number of concurrent workers; <= 0 means
	// GOMAXPROCS.
	Parallelism int

	// Retries is how many times a failed job is re-run (with the same
	// seed) before its error is recorded. Context errors are never
	// retried.
	Retries int

	// Observer receives lifecycle and progress callbacks. Nil means no
	// observation. Callbacks may fire concurrently from worker
	// goroutines; the observers in this package serialize internally.
	Observer Observer

	// Sink receives every Result exactly once, in strict job-index
	// order; nil discards them. It is the only holder of job payloads,
	// which is what keeps a 10k-job campaign at constant RSS. The reorder
	// buffer applies backpressure: a worker whose result is more than
	// ~2×Parallelism jobs ahead of the delivery cursor blocks until the
	// sink catches up, so a slow sink bounds memory instead of growing a
	// backlog. Sink is called from worker goroutines but never
	// concurrently with itself; it must not call back into the Runner.
	Sink func(Result[T])
}

// reorder delivers results to a Sink in job-index order no matter what
// order workers complete them in. Out-of-order results wait in pending,
// whose size is capped at window: a worker trying to park a result too
// far ahead of the delivery cursor waits on cond, which turns a slow
// sink into backpressure on the whole pool rather than an unbounded
// parked-results backlog. The worker owning index next is always inside
// the window, so delivery — and therefore every waiter — makes progress.
type reorder[T any] struct {
	mu      sync.Mutex
	cond    *sync.Cond
	next    int
	window  int
	pending map[int]Result[T]
	sink    func(Result[T])
}

func newReorder[T any](window int, sink func(Result[T])) *reorder[T] {
	ro := &reorder[T]{window: window, pending: make(map[int]Result[T]), sink: sink}
	ro.cond = sync.NewCond(&ro.mu)
	return ro
}

func (ro *reorder[T]) deliver(idx int, res Result[T]) {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	for idx >= ro.next+ro.window {
		ro.cond.Wait()
	}
	ro.pending[idx] = res
	for {
		r, ok := ro.pending[ro.next]
		if !ok {
			return
		}
		delete(ro.pending, ro.next)
		ro.next++
		ro.cond.Broadcast()
		ro.sink(r)
	}
}

// Run executes all jobs and hands each one's Result to Sink, in job
// order (not completion order). Individual job failures do not fail the
// run; they are recorded in their Result and reported to the Observer.
// The returned error is non-nil only when ctx was cancelled or its
// deadline exceeded, in which case completed jobs are still delivered
// and the rest arrive carrying the context's error (partial-campaign
// semantics).
func (r *Runner[T]) Run(ctx context.Context, jobs []Job, fn Func[T]) error {
	workers := r.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	obs := r.Observer
	if obs == nil {
		obs = NopObserver{}
	}

	totalEpochs := 0
	for _, j := range jobs {
		totalEpochs += j.Epochs
	}
	obs.CampaignStarted(len(jobs), totalEpochs)

	// The summary is tallied as results are delivered, under the reorder
	// lock, so it counts exactly what the sink saw.
	sum := Summary{Jobs: len(jobs)}
	ro := newReorder(2*workers+1, func(res Result[T]) {
		switch {
		case res.Attempts == 0:
			sum.Skipped++
		case res.Err != nil:
			sum.Failed++
		default:
			sum.Completed++
		}
		if res.Attempts > 1 {
			sum.Retried++
		}
		sum.Events += res.Events
		sum.VirtualS += res.VirtualS
		if r.Sink != nil {
			r.Sink(res)
		}
	})

	feed := make(chan int)
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range feed {
				ro.deliver(idx, r.runJob(ctx, jobs[idx], fn, obs))
			}
		}()
	}

	sent := len(jobs)
dispatch:
	for i := range jobs {
		select {
		case feed <- i:
		case <-ctx.Done():
			sent = i
			break dispatch
		}
	}
	close(feed)
	wg.Wait()

	// Jobs never dispatched carry the context error so callers can tell
	// them apart from completed work; they flow through the reorder
	// buffer too, keeping the exactly-once-in-order contract. Dispatched
	// jobs that aborted before their first attempt were already delivered
	// by runJob with Attempts == 0.
	for i := sent; i < len(jobs); i++ {
		ro.deliver(i, Result[T]{Job: jobs[i], Err: ctx.Err()})
	}

	sum.Wall = time.Since(start)
	obs.CampaignFinished(sum)
	return ctx.Err()
}

// runJob executes one job with panic isolation and retries.
func (r *Runner[T]) runJob(ctx context.Context, job Job, fn Func[T], obs Observer) Result[T] {
	res := Result[T]{Job: job}
	start := time.Now()
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			// Keep Attempts at the tried count: 0 means "never started".
			res.Err = err
			break
		}
		res.Attempts = attempt
		obs.TraceStarted(job, attempt)
		rep := &Reporter{obs: obs, job: job}
		val, err := protect(ctx, job, rep, fn)
		res.Value, res.Err = val, err
		res.Events += rep.events
		if rep.virtual > res.VirtualS {
			res.VirtualS = rep.virtual
		}
		obs.TraceFinished(job, err, attempt, time.Since(start))
		if err == nil || attempt > r.Retries || isContextErr(err) || ctx.Err() != nil {
			break
		}
	}
	if res.Err != nil && res.Attempts > 0 && !isContextErr(res.Err) {
		if _, ok := res.Err.(*JobError); !ok {
			res.Err = &JobError{Job: job, Attempts: res.Attempts, Err: res.Err}
		}
	}
	return res
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// protect runs fn converting a panic into a *PanicError, so one trace
// blowing up inside its simulation engine cannot take the process down.
func protect[T any](ctx context.Context, job Job, rep *Reporter, fn Func[T]) (val T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, At: panicSite()}
		}
	}()
	return fn(ctx, job, rep)
}

// panicSite names, as file:line, the first frame below runtime.gopanic
// that is not in the runtime: the code that panicked, past the runtime's
// own raisers (panicIndex, sigpanic, ...). Called from a deferred recover,
// it walks the panicking goroutine's stack, so it costs only on a panic.
func panicSite() string {
	var pcs [32]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	inPanic := false
	for {
		f, more := frames.Next()
		switch {
		case f.Function == "runtime.gopanic":
			inPanic = true
		case inPanic && !strings.HasPrefix(f.Function, "runtime."):
			return fmt.Sprintf("%s:%d", filepath.Base(f.File), f.Line)
		}
		if !more {
			return ""
		}
	}
}

// Reporter is the per-job handle through which a running job reports
// progress. It is created by the Runner; methods are safe to call from
// the job's goroutine only.
type Reporter struct {
	obs     Observer
	job     Job
	events  uint64
	virtual float64
}

// Epoch reports that one measurement epoch finished: its index, the
// engine's virtual clock, and the number of simulation events the epoch
// processed (a per-segment delta, not a cumulative count).
func (r *Reporter) Epoch(epoch int, virtualTime float64, events uint64) {
	if r == nil {
		return
	}
	r.events += events
	r.virtual = virtualTime
	r.obs.EpochDone(r.job, epoch, virtualTime, events)
}
