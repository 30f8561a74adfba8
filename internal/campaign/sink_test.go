package campaign

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunnerSinkOrdered: every result arrives at the Sink exactly once,
// in strict job-index order, with its value and metadata, even when
// completion order is scrambled.
func TestRunnerSinkOrdered(t *testing.T) {
	jobs := makeJobs(24)
	var got []Result[int]
	r := &Runner[int]{
		Parallelism: 6,
		Sink:        func(res Result[int]) { got = append(got, res) },
	}
	err := r.Run(context.Background(), jobs, func(ctx context.Context, job Job, rep *Reporter) (int, error) {
		// Vary the work so completion order differs from job order.
		time.Sleep(time.Duration((23-job.Index)%5) * time.Millisecond)
		return job.Index*10 + 1, nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("sink saw %d results, want %d", len(got), len(jobs))
	}
	for i, res := range got {
		if res.Job.Index != i {
			t.Fatalf("sink result %d carries job %d: delivery out of order", i, res.Job.Index)
		}
		if res.Value != i*10+1 || res.Err != nil || !res.Started {
			t.Errorf("sink result %d = (%d, %v, started %v), want (%d, nil, true)", i, res.Value, res.Err, res.Started, i*10+1)
		}
	}
}

// TestRunnerSinkCancelled: cancelling mid-campaign still delivers every
// job to the sink exactly once and in order — completed ones with their
// values, undispatched ones with the context error — and the Summary the
// observer receives counts exactly what was delivered.
func TestRunnerSinkCancelled(t *testing.T) {
	jobs := makeJobs(40)
	ctx, cancel := context.WithCancel(context.Background())
	var delivered []Result[int]
	var ran atomic.Int32
	obs := &countingObserver{}
	r := &Runner[int]{
		Parallelism: 4,
		Observer:    obs,
		Sink:        func(res Result[int]) { delivered = append(delivered, res) },
	}
	err := r.Run(ctx, jobs, func(ctx context.Context, job Job, rep *Reporter) (int, error) {
		if ran.Add(1) == 8 {
			cancel()
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		return job.Index, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if len(delivered) != len(jobs) {
		t.Fatalf("sink saw %d results, want %d (exactly once per job)", len(delivered), len(jobs))
	}
	completed, skipped, failed := 0, 0, 0
	for i, res := range delivered {
		if res.Job.Index != i {
			t.Fatalf("sink result %d carries job %d: delivery out of order", i, res.Job.Index)
		}
		switch {
		case res.Err == nil:
			completed++
		case !res.Started && errors.Is(res.Err, context.Canceled):
			skipped++
		case isContextErr(res.Err):
			// Dispatched but aborted mid-run: also fine.
			failed++
		default:
			t.Errorf("unexpected result %d: %+v", i, res)
		}
	}
	if completed == 0 || skipped == 0 {
		t.Errorf("want a mix of completed (%d) and skipped (%d) jobs", completed, skipped)
	}
	sum := obs.sum
	if sum.Jobs != len(jobs) || sum.Completed != completed || sum.Skipped != skipped || sum.Failed != failed {
		t.Errorf("observer summary %d jobs, %d/%d/%d completed/skipped/failed; delivered %d, %d/%d/%d",
			sum.Jobs, sum.Completed, sum.Skipped, sum.Failed, len(delivered), completed, skipped, failed)
	}
}
