package testbed

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestCollectObs runs a one-path campaign with the observability layer
// attached and checks the three things the wiring promises: the span
// tree mirrors the Fig.-1 epoch timeline (epoch → pathload/ping/
// transfer/small/gap, with sim.run segments below), the campaign_* and
// testbed_packets_* metrics are populated, and the exposition is valid.
func TestCollectObs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign; skipped in -short mode")
	}
	cfg := TinyConfig(7)
	cfg.Catalog.NumPaths = 1
	cfg.Catalog.NumDSL = 0
	cfg.Catalog.NumTrans = 0
	cfg.EpochsPerTrace = 2
	o := obs.New(obs.DefaultSpanCapacity)
	cfg.Obs = o

	ds, err := CollectContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(ds.Traces))
	}

	spans, dropped := o.T().Snapshot()
	byName := map[string]int{}
	byID := map[uint64]obs.SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name]++
		byID[sp.ID] = sp
	}
	if byName["campaign"] != 1 || byName["warmup"] != 1 {
		t.Errorf("campaign/warmup spans = %d/%d, want 1/1", byName["campaign"], byName["warmup"])
	}
	if byName["epoch"] != cfg.EpochsPerTrace {
		t.Errorf("epoch spans = %d, want %d", byName["epoch"], cfg.EpochsPerTrace)
	}
	for _, name := range []string{"pathload", "ping", "transfer", "small", "gap"} {
		if byName[name] != cfg.EpochsPerTrace {
			t.Errorf("%s spans = %d, want %d", name, byName[name], cfg.EpochsPerTrace)
		}
	}
	if byName["sim.run"] == 0 {
		t.Error("no sim.run spans under the phases")
	}
	// Every phase span parents to an epoch span; sim.run spans parent to
	// a phase (or the warmup) span. dropped may be non-zero on big
	// configs but must be zero at this size.
	if dropped != 0 {
		t.Errorf("tracer dropped %d spans", dropped)
	}
	phaseNames := map[string]bool{"pathload": true, "ping": true, "transfer": true, "small": true, "gap": true}
	for _, sp := range spans {
		switch {
		case phaseNames[sp.Name]:
			if parent, ok := byID[sp.Parent]; !ok || parent.Name != "epoch" {
				t.Errorf("%s span parent = %+v, want an epoch span", sp.Name, parent)
			}
		case sp.Name == "sim.run":
			if parent, ok := byID[sp.Parent]; !ok || (!phaseNames[parent.Name] && parent.Name != "warmup") {
				t.Errorf("sim.run parent = %q, want a phase or warmup span", parent.Name)
			}
		}
	}
	if o.T().Active() != 0 {
		t.Errorf("%d spans left open after the campaign", o.T().Active())
	}

	var buf bytes.Buffer
	if err := o.M().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"campaign_jobs_completed_total 1",
		"campaign_epochs_total 2",
		"testbed_packets_pooled_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n---\n%s", want, out)
		}
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
}

// TestCollectObsOff pins that runs with and without Obs attached produce
// identical datasets: telemetry is execution instrumentation, never part
// of the campaign's identity.
func TestCollectObsOff(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign; skipped in -short mode")
	}
	cfg := TinyConfig(11)
	cfg.Catalog.NumPaths = 1
	cfg.Catalog.NumDSL = 0
	cfg.Catalog.NumTrans = 0
	cfg.EpochsPerTrace = 2

	plain := collect(t, cfg)
	cfg.Obs = obs.New(64) // tiny ring: spans drop, results must not care
	instrumented := collect(t, cfg)

	if len(plain.Traces) != len(instrumented.Traces) {
		t.Fatalf("trace counts differ: %d vs %d", len(plain.Traces), len(instrumented.Traces))
	}
	for i := range plain.Traces {
		a, b := plain.Traces[i], instrumented.Traces[i]
		if len(a.Records) != len(b.Records) {
			t.Fatalf("record counts differ for %s", a.Path)
		}
		for j := range a.Records {
			if !reflect.DeepEqual(a.Records[j], b.Records[j]) {
				t.Errorf("record %d differs with obs attached:\n  %+v\n  %+v", j, a.Records[j], b.Records[j])
			}
		}
	}
}
