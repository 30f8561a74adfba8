package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func makeJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Index: i, Path: fmt.Sprintf("p%d", i), Trace: 0, Seed: int64(i + 1), Epochs: 4}
	}
	return jobs
}

// collect runs r with a sink that gathers every delivered result, in
// delivery order.
func collect[T any](ctx context.Context, r *Runner[T], jobs []Job, fn Func[T]) ([]Result[T], error) {
	var got []Result[T]
	r.Sink = func(res Result[T]) { got = append(got, res) }
	err := r.Run(ctx, jobs, fn)
	return got, err
}

func TestRunnerAssemblesInJobOrder(t *testing.T) {
	jobs := makeJobs(20)
	r := &Runner[int]{Parallelism: 7}
	results, err := collect(context.Background(), r, jobs, func(ctx context.Context, job Job, rep *Reporter) (int, error) {
		// Vary the work so completion order differs from job order.
		time.Sleep(time.Duration(19-job.Index) * time.Millisecond)
		return job.Index * 10, nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("sink saw %d results, want %d", len(results), len(jobs))
	}
	for i, res := range results {
		if res.Err != nil || res.Value != i*10 {
			t.Errorf("result %d = (%d, %v), want (%d, nil)", i, res.Value, res.Err, i*10)
		}
		if res.Job.Index != i {
			t.Errorf("result %d carries job %d", i, res.Job.Index)
		}
	}
}

func TestRunnerPanicIsolation(t *testing.T) {
	jobs := makeJobs(6)
	r := &Runner[string]{Parallelism: 3}
	results, err := collect(context.Background(), r, jobs, func(ctx context.Context, job Job, rep *Reporter) (string, error) {
		if job.Index == 2 {
			panic("engine blew up")
		}
		return job.Path, nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, res := range results {
		if i == 2 {
			if res.Err == nil {
				t.Fatal("panicking job reported no error")
			}
			var je *JobError
			if !errors.As(res.Err, &je) {
				t.Fatalf("error %T, want *JobError", res.Err)
			}
			if je.Job.Path != "p2" || je.Job.Seed != 3 {
				t.Errorf("JobError identity = %s seed %d", je.Job, je.Job.Seed)
			}
			var pe *PanicError
			if !errors.As(res.Err, &pe) {
				t.Fatalf("error does not wrap *PanicError: %v", res.Err)
			}
			if pe.Value != "engine blew up" {
				t.Errorf("PanicError = %v", pe.Value)
			}
			if msg := pe.Error(); !strings.Contains(msg, "panic at campaign_test.go:") {
				t.Errorf("PanicError %q does not name the panicking line", msg)
			}
			continue
		}
		if res.Err != nil {
			t.Errorf("healthy job %d failed: %v", i, res.Err)
		}
	}
}

func TestRunnerCancellation(t *testing.T) {
	jobs := makeJobs(30)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	r := &Runner[int]{Parallelism: 2}
	results, err := collect(ctx, r, jobs, func(ctx context.Context, job Job, rep *Reporter) (int, error) {
		n := started.Add(1)
		if n == 4 {
			cancel()
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		default:
		}
		return 1, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	completed, skipped := 0, 0
	for _, res := range results {
		switch {
		case res.Err == nil:
			completed++
		case !res.Started:
			if !errors.Is(res.Err, context.Canceled) {
				t.Errorf("skipped job carries %v", res.Err)
			}
			skipped++
		}
	}
	if completed == 0 {
		t.Error("no jobs completed before cancellation")
	}
	if skipped == 0 {
		t.Error("no jobs were skipped after cancellation")
	}
	if completed == len(jobs) {
		t.Error("all jobs completed despite cancellation")
	}
}

// countingObserver records callback counts for assertion.
type countingObserver struct {
	mu                               sync.Mutex
	started, epochs, finished, calls int
	events                           uint64
	sum                              Summary
}

func (c *countingObserver) CampaignStarted(jobs, epochs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
}

func (c *countingObserver) TraceStarted(Job, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.started++
}

func (c *countingObserver) EpochDone(j Job, ep int, vt float64, events uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epochs++
	c.events += events
}

func (c *countingObserver) TraceFinished(Job, error, int, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finished++
}

func (c *countingObserver) CampaignFinished(sum Summary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sum = sum
}

func TestObserverSeesEpochsAndSummary(t *testing.T) {
	jobs := makeJobs(4)
	obs := &countingObserver{}
	r := &Runner[int]{Parallelism: 4, Observer: obs}
	err := r.Run(context.Background(), jobs, func(ctx context.Context, job Job, rep *Reporter) (int, error) {
		for ep := 0; ep < job.Epochs; ep++ {
			rep.Epoch(ep, float64(ep+1)*10, 100)
		}
		return 0, nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if obs.started != 4 || obs.finished != 4 || obs.epochs != 16 {
		t.Errorf("observer saw %d/%d/%d started/finished/epochs, want 4/4/16", obs.started, obs.finished, obs.epochs)
	}
	if obs.events != 1600 {
		t.Errorf("observer saw %d events, want 1600", obs.events)
	}
	if obs.sum.Completed != 4 || obs.sum.Events != 1600 || obs.sum.VirtualS != 4*40 {
		t.Errorf("summary = %+v", obs.sum)
	}
}

func TestProgressOutput(t *testing.T) {
	var buf bytes.Buffer
	jobs := makeJobs(2)
	r := &Runner[int]{Parallelism: 1, Observer: &Progress{W: &buf}}
	err := r.Run(context.Background(), jobs, func(ctx context.Context, job Job, rep *Reporter) (int, error) {
		rep.Epoch(0, 5, 42)
		return 0, nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "traces") || !strings.Contains(out, "campaign: 2/2 traces ok") {
		t.Errorf("progress output missing expected fields:\n%q", out)
	}
}

func TestJSONLOutput(t *testing.T) {
	var buf bytes.Buffer
	jobs := makeJobs(2)
	r := &Runner[int]{Parallelism: 1, Observer: NewJSONL(&buf)}
	err := r.Run(context.Background(), jobs, func(ctx context.Context, job Job, rep *Reporter) (int, error) {
		rep.Epoch(0, 2.5, 7)
		if job.Index == 1 {
			return 0, fmt.Errorf("boom")
		}
		return 0, nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var kinds []string
	sawError := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		kinds = append(kinds, ev["event"].(string))
		if s, ok := ev["error"].(string); ok && strings.Contains(s, "boom") {
			sawError = true
		}
	}
	if kinds[0] != "campaign_started" || kinds[len(kinds)-1] != "campaign_finished" {
		t.Errorf("event order: %v", kinds)
	}
	if !sawError {
		t.Error("failed trace's error not present in JSONL stream")
	}
	found := map[string]bool{}
	for _, k := range kinds {
		found[k] = true
	}
	for _, want := range []string{"trace_started", "epoch", "trace_finished"} {
		if !found[want] {
			t.Errorf("missing %q event", want)
		}
	}
}
