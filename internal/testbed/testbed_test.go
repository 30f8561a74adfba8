package testbed

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// collect runs the campaign described by cfg and fails tb on any error.
func collect(tb testing.TB, cfg RunConfig) *Dataset {
	tb.Helper()
	ds, err := CollectContext(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

func TestCatalogComposition(t *testing.T) {
	cfg := CatalogConfig{Seed: 1}
	paths := Catalog(cfg)
	if len(paths) != 35 {
		t.Fatalf("catalog size %d, want 35", len(paths))
	}
	count := map[PathClass]int{}
	for _, p := range paths {
		count[p.Class]++
	}
	if count[ClassDSL] != 7 || count[ClassTransatlantic] != 5 || count[ClassKorea] != 1 {
		t.Errorf("class counts %v, want 7 DSL / 5 transatlantic / 1 Korea", count)
	}
	if count[ClassUS] != 35-13 {
		t.Errorf("US paths %d, want %d", count[ClassUS], 35-13)
	}
}

func TestCatalogDeterministic(t *testing.T) {
	a := Catalog(CatalogConfig{Seed: 9})
	b := Catalog(CatalogConfig{Seed: 9})
	if !reflect.DeepEqual(a, b) {
		t.Error("same-seed catalogs differ")
	}
	c := Catalog(CatalogConfig{Seed: 10})
	if reflect.DeepEqual(a, c) {
		t.Error("different-seed catalogs identical")
	}
}

func TestCatalogPathProperties(t *testing.T) {
	for _, pc := range Catalog(CatalogConfig{Seed: 3}) {
		bn := math.Inf(1)
		for _, h := range pc.Spec.Forward {
			bn = math.Min(bn, h.CapacityBps)
		}
		switch pc.Class {
		case ClassDSL:
			if bn < 0.5e6 || bn > 2e6 {
				t.Errorf("%s: DSL bottleneck %.2f Mbps", pc.Name, bn/1e6)
			}
		default:
			if bn < 10e6 || bn > 100e6 {
				t.Errorf("%s: bottleneck %.2f Mbps outside [10,100]", pc.Name, bn/1e6)
			}
		}
		if pc.BaseUtilization < 0 || pc.BaseUtilization > 0.97 {
			t.Errorf("%s: utilization %v", pc.Name, pc.BaseUtilization)
		}
		if len(pc.Spec.Forward) != 3 {
			t.Errorf("%s: %d forward hops, want 3", pc.Name, len(pc.Spec.Forward))
		}
		if pc.ElasticFlows != len(pc.ElasticRTTs) {
			t.Errorf("%s: %d elastic flows but %d RTTs", pc.Name, pc.ElasticFlows, len(pc.ElasticRTTs))
		}
		// The middle hop must be the bottleneck.
		if pc.Spec.Forward[1].CapacityBps != bn {
			t.Errorf("%s: bottleneck not the middle hop", pc.Name)
		}
	}
}

func TestCollectDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign; skipped in -short mode")
	}
	cfg := TinyConfig(5)
	cfg.Parallelism = 2
	a := collect(t, cfg)
	b := collect(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Error("same-seed campaigns differ (parallelism must not affect results)")
	}
}

func TestCollectRecordsComplete(t *testing.T) {
	ds := collect(t, TinyConfig(8))
	for _, tr := range ds.Traces {
		for i, r := range tr.Records {
			if r.Epoch != i {
				t.Errorf("%s: record %d has epoch %d", tr.Path, i, r.Epoch)
			}
			if r.PreRTT <= 0 {
				t.Errorf("%s ep%d: no pre-flow RTT", tr.Path, i)
			}
			if r.Throughput <= 0 {
				t.Errorf("%s ep%d: zero throughput", tr.Path, i)
			}
			if r.SmallWindowBytes == 0 || r.SmallThroughput <= 0 {
				t.Errorf("%s ep%d: missing small-window transfer", tr.Path, i)
			}
			if r.DurRTT <= 0 {
				t.Errorf("%s ep%d: no during-flow RTT", tr.Path, i)
			}
			if r.PreLoss < 0 || r.PreLoss > 1 || r.FlowLoss < 0 || r.FlowLoss > 1 {
				t.Errorf("%s ep%d: loss rates out of range", tr.Path, i)
			}
			if r.FlowEventRate > r.FlowLoss+1e-9 {
				t.Errorf("%s ep%d: event rate %v above loss rate %v", tr.Path, i, r.FlowEventRate, r.FlowLoss)
			}
			if r.StartTime < 0 {
				t.Errorf("%s ep%d: negative start time", tr.Path, i)
			}
		}
	}
}

func TestCollectEpochTimesIncrease(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign; skipped in -short mode")
	}
	ds := collect(t, TinyConfig(2))
	for _, tr := range ds.Traces {
		for i := 1; i < len(tr.Records); i++ {
			if tr.Records[i].StartTime <= tr.Records[i-1].StartTime {
				t.Fatalf("%s: epoch times not increasing", tr.Path)
			}
		}
	}
}

func TestSecondSetHasCheckpoints(t *testing.T) {
	cfg := SecondSet(1, true)
	cfg.Catalog.NumPaths = 2
	cfg.EpochsPerTrace = 2
	cfg.TransferSec = 20
	cfg.Checkpoints = []float64{5, 10}
	cfg.PingDuration = 10
	ds := collect(t, cfg)
	for _, tr := range ds.Traces {
		for _, r := range tr.Records {
			if len(r.Checkpoints) != 2 {
				t.Fatalf("checkpoints = %v", r.Checkpoints)
			}
			if r.Checkpoints[0] <= 0 || r.Checkpoints[1] <= 0 {
				t.Errorf("empty checkpoint values: %v", r.Checkpoints)
			}
		}
	}
}

func TestRunConfigDefaults(t *testing.T) {
	cfg := RunConfig{}.Defaults()
	if cfg.TracesPerPath != 7 || cfg.EpochsPerTrace != 150 {
		t.Errorf("paper-scale defaults wrong: %+v", cfg)
	}
	if cfg.PingDuration != 60 || cfg.TransferSec != 50 {
		t.Errorf("paper durations wrong: %+v", cfg)
	}
	if cfg.Catalog.horizon <= 0 {
		t.Error("horizon not derived")
	}
}

func TestPaperScaleMatchesPaper(t *testing.T) {
	cfg := PaperScale(1).Defaults()
	if cfg.Catalog.defaults().NumPaths != 35 {
		t.Error("paper scale should have 35 paths")
	}
	if cfg.SmallWindowBytes != 20*1024 {
		t.Error("paper scale needs the 20 KB companion transfer")
	}
}
