package campaign

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestTelemetryObserver runs a small campaign (with one job that fails
// once and is retried) and checks the spans and metrics it leaves in the
// observability layer.
func TestTelemetryObserver(t *testing.T) {
	o := obs.New(256)
	tel := NewTelemetry(o)

	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{Index: i, Path: "p", Trace: i, Seed: int64(i + 1), Epochs: 3}
	}
	failedOnce := false
	r := &Runner[int]{Parallelism: 2, Retries: 1, Observer: tel}
	results, err := collect(context.Background(), r, jobs, func(ctx context.Context, job Job, rep *Reporter) (int, error) {
		if job.Index == 2 && !failedOnce {
			failedOnce = true
			return 0, errors.New("transient")
		}
		for ep := 0; ep < job.Epochs; ep++ {
			rep.Epoch(ep, float64(ep), 10)
		}
		return job.Index, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d failed: %v", res.Job.Index, res.Err)
		}
	}

	var buf bytes.Buffer
	if err := o.M().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"campaign_jobs_started_total 5", // 4 jobs + 1 retry
		"campaign_jobs_completed_total 4",
		"campaign_jobs_failed_total 1",
		"campaign_retries_total 1",
		"campaign_epochs_total 12",
		"campaign_events_total 120",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics missing %q\n---\n%s", want, out)
		}
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Errorf("campaign metrics invalid: %v", err)
	}

	spans, _ := o.T().Snapshot()
	var campaignSpans, traceSpans int
	var campaignID uint64
	for _, sp := range spans {
		if sp.Name == "campaign" {
			campaignSpans++
			campaignID = sp.ID
		}
	}
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "trace ") {
			traceSpans++
			if sp.Parent != campaignID {
				t.Errorf("trace span %q parented to %d, want campaign %d", sp.Name, sp.Parent, campaignID)
			}
		}
	}
	if campaignSpans != 1 || traceSpans != 5 {
		t.Errorf("got %d campaign / %d trace spans, want 1 / 5", campaignSpans, traceSpans)
	}
	if o.T().Active() != 0 {
		t.Errorf("%d spans left open", o.T().Active())
	}
}

// TestTelemetryNilObs pins that a telemetry observer over a nil Obs is
// safe to attach.
func TestTelemetryNilObs(t *testing.T) {
	tel := NewTelemetry(nil)
	jobs := []Job{{Index: 0, Path: "p", Seed: 1, Epochs: 1}}
	r := &Runner[int]{Observer: tel}
	if err := r.Run(context.Background(), jobs, func(ctx context.Context, job Job, rep *Reporter) (int, error) {
		rep.Epoch(0, 1, 1)
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
}
