package experiments

import (
	"path/filepath"
	"testing"

	"repro/internal/predict"
	"repro/internal/predsvc"
	"repro/internal/traceio"
)

// TestZooLoopServesWhatSessionServes is the cross-layer check that the
// offline experiments score the tournament the service serves: one
// committed d1 trace is replayed through a predsvc.Session and through the
// ExtZoo loop, and at every epoch each family's forecast and [p10,p90]
// must be identical.
func TestZooLoopServesWhatSessionServes(t *testing.T) {
	ds, err := traceio.Load(filepath.Join("..", "..", "data", "d1-seed1.json.gz"))
	if err != nil {
		t.Fatal(err)
	}
	tr := ds.Traces[0]
	sess := predsvc.NewRegistry(predsvc.Config{}).GetOrCreate(tr.Path)
	epoch := 0
	zooErrors(tr, func(fams []predict.FamilyView, actual float64) {
		rec := tr.Records[epoch]
		sess.SetMeasurement(predict.FBInputs{RTT: rec.PreRTT, LossRate: rec.PreLoss, AvailBw: rec.AvailBw})
		p := sess.Predict()
		if len(p.Families) != len(fams) {
			t.Fatalf("session serves %d families, the zoo loop runs %d", len(p.Families), len(fams))
		}
		for i, f := range fams {
			var p10, p90 float64
			if f.Calibrated {
				p10, p90 = f.Quantiles.P10, f.Quantiles.P90
			}
			got := p.Families[i]
			if got.Name != f.Name || got.ForecastBps != f.Forecast || got.P10Bps != p10 || got.P90Bps != p90 {
				t.Fatalf("epoch %d, %s: session serves forecast %v [%v, %v], the zoo loop scores %s %v [%v, %v]",
					epoch, got.Name, got.ForecastBps, got.P10Bps, got.P90Bps, f.Name, f.Forecast, p10, p90)
			}
		}
		sess.Observe(actual)
		epoch++
	})
	if epoch != len(tr.Records) || epoch < 20 {
		t.Fatalf("compared %d epochs of a %d-epoch trace", epoch, len(tr.Records))
	}
}
