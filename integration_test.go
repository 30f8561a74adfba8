package tcppred_test

import (
	"context"
	"testing"

	"repro/internal/availbw"
	"repro/internal/experiments"
	"repro/internal/predict"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// collect runs the campaign described by cfg and fails tb on any error.
func collect(tb testing.TB, cfg testbed.RunConfig) *testbed.Dataset {
	tb.Helper()
	ds, err := testbed.CollectContext(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// integrationConfig is sized for CI: ~8 s of wall time, enough epochs for
// the shape assertions below to be stable.
func integrationConfig(seed int64) testbed.RunConfig {
	return testbed.RunConfig{
		Seed: seed,
		Catalog: testbed.CatalogConfig{
			Seed:      seed + 7777,
			NumPaths:  5,
			NumDSL:    1,
			NumTrans:  1,
			MinCapBps: 3e6,
			MaxCapBps: 10e6,
		},
		TracesPerPath:    1,
		EpochsPerTrace:   12,
		PingDuration:     15,
		TransferSec:      12,
		EpochGap:         5,
		SmallWindowBytes: 20 * 1024,
		SmallTransferSec: 8,
		Pathload:         availbw.Config{StreamLength: 60, StreamsPerRate: 1, MaxIterations: 8},
	}
}

// TestEndToEndShapes runs a miniature measurement campaign through the
// full pipeline and asserts the paper's qualitative findings hold.
func TestEndToEndShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign; skipped in -short mode")
	}
	ds := collect(t, integrationConfig(20050822))
	if ds.Epochs() != 5*12 {
		t.Fatalf("epochs = %d", ds.Epochs())
	}

	// Finding 4 (§6.2): with history, HB beats FB. Compare median
	// per-trace RMSRE.
	fb := predict.NewFB(predict.FBConfig{Model: predict.ModelPFTK})
	var fbR, hbR []float64
	for _, tr := range ds.Traces {
		var fbE []float64
		for _, rec := range tr.Records {
			pred := fb.Predict(predict.FBInputs{RTT: rec.PreRTT, LossRate: rec.PreLoss, AvailBw: rec.AvailBw})
			fbE = append(fbE, stats.RelativeError(pred, rec.Throughput))
		}
		fbR = append(fbR, stats.RMSRE(fbE))
		hbR = append(hbR, stats.RMSRE(predict.Evaluate(
			predict.NewLSO(predict.NewHoltWinters(0.8, 0.2), predict.DefaultLSOConfig()),
			tr.Throughputs())))
	}
	fbMed, hbMed := stats.Median(fbR), stats.Median(hbR)
	t.Logf("median per-trace RMSRE: FB %.3f, HB %.3f", fbMed, hbMed)
	if hbMed >= fbMed {
		t.Errorf("HB median RMSRE %.3f not below FB %.3f", hbMed, fbMed)
	}

	// Finding: the RTT measured during the flow exceeds the pre-flow RTT
	// in the typical epoch (self-induced queueing, §3.2).
	increased := 0
	for _, rec := range ds.AllRecords() {
		if rec.DurRTT > rec.PreRTT {
			increased++
		}
	}
	if frac := float64(increased) / float64(ds.Epochs()); frac < 0.6 {
		t.Errorf("RTT increased during the flow in only %.0f%% of epochs", frac*100)
	}

	// Finding 6 (§4.3): window-limited transfers are more predictable
	// (FB side). As in the paper's Fig. 12, only epochs where the small
	// window actually limits the transfer (W/T̂ < Â) qualify.
	var largeE, smallE []float64
	for _, rec := range ds.AllRecords() {
		if !rec.SmallWindowLimited {
			continue
		}
		in := predict.FBInputs{RTT: rec.PreRTT, LossRate: rec.PreLoss, AvailBw: rec.AvailBw}
		fbL := predict.NewFB(predict.FBConfig{Model: predict.ModelPFTK, MaxWindowBytes: 1 << 20})
		fbS := predict.NewFB(predict.FBConfig{Model: predict.ModelPFTK, MaxWindowBytes: rec.SmallWindowBytes})
		largeE = append(largeE, stats.RelativeError(fbL.Predict(in), rec.Throughput))
		smallE = append(smallE, stats.RelativeError(fbS.Predict(in), rec.SmallThroughput))
	}
	if len(smallE) >= 10 {
		lr, sr := stats.RMSRE(largeE), stats.RMSRE(smallE)
		t.Logf("FB RMSRE over %d window-limited epochs: large-W %.3f, small-W %.3f", len(smallE), lr, sr)
		if sr >= lr {
			t.Errorf("window-limited RMSRE %.3f not below congestion-limited %.3f", sr, lr)
		}
	}

	// The experiment runners must all work on this dataset.
	for _, res := range experiments.All(ds, 1) {
		if len(res.Tables) == 0 {
			t.Errorf("experiment %s produced nothing", res.ID)
		}
	}
}

// TestEndToEndDeterminism re-collects the same campaign and checks a few
// scalar outputs match exactly.
func TestEndToEndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign; skipped in -short mode")
	}
	cfg := integrationConfig(7)
	cfg.Catalog.NumPaths = 2
	cfg.EpochsPerTrace = 4
	a := collect(t, cfg)
	b := collect(t, cfg)
	ra, rb := a.AllRecords(), b.AllRecords()
	if len(ra) != len(rb) {
		t.Fatal("different epoch counts")
	}
	for i := range ra {
		if ra[i].Throughput != rb[i].Throughput || ra[i].PreRTT != rb[i].PreRTT {
			t.Fatalf("record %d differs between identical runs", i)
		}
	}
}
