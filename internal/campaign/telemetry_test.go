package campaign

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestTelemetryObserver runs a small campaign (with one job that fails)
// and checks the spans and metrics it leaves in the observability layer.
// The failed job runs once: nothing is retried.
func TestTelemetryObserver(t *testing.T) {
	o := obs.New(256)
	tel := NewTelemetry(o)

	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{Index: i, Path: "p", Trace: i, Seed: int64(i + 1), Epochs: 3}
	}
	r := &Runner[int]{Parallelism: 2, Observer: tel}
	results, err := collect(context.Background(), r, jobs, func(ctx context.Context, job Job, rep *Reporter) (int, error) {
		if job.Index == 2 {
			return 0, errors.New("job fault")
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
		if failed := res.Err != nil; failed != (res.Job.Index == 2) {
			t.Fatalf("job %d: err = %v, want an error only for job 2", res.Job.Index, res.Err)
		}
	}

	var buf bytes.Buffer
	if err := o.M().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"campaign_jobs_started_total 4",
		"campaign_jobs_completed_total 3",
		"campaign_jobs_failed_total 1",
		"campaign_epochs_total 9",
		"campaign_events_total 90",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics missing %q\n---\n%s", want, out)
		}
	}
	if strings.Contains(out, "campaign_retries_total") {
		t.Errorf("metrics still export campaign_retries_total\n---\n%s", out)
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
	if campaignSpans != 1 || traceSpans != 4 {
		t.Errorf("got %d campaign / %d trace spans, want 1 / 4", campaignSpans, traceSpans)
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
