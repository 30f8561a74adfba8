package experiments

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/predict"
	"repro/internal/predsvc"
	"repro/internal/stats"
	"repro/internal/traceio"
)

// TestZooLoopServesWhatSessionServes is the cross-layer check that the
// offline experiments score the tournament the service serves: every trace
// of the committed d1 and scenario datasets is replayed through a
// predsvc.Session and through the ExtZoo loop. At every epoch each
// family's forecast and [p10,p90] must be identical, and after the last
// epoch each family's served rmsre and error_count must be the Eq. 5
// RMSRE and the count of the errors the zoo loop scored, bit for bit.
func TestZooLoopServesWhatSessionServes(t *testing.T) {
	for _, file := range []string{"d1-seed1.json.gz", "cc-seed1.json.gz"} {
		ds, err := traceio.Load(filepath.Join("..", "..", "data", file))
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range ds.Traces {
			sess := predsvc.NewRegistry(predsvc.Config{}).GetOrCreate(tr.Path)
			epoch := 0
			errs := zooErrors(tr, func(fams []predict.FamilyView, actual float64) {
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
						t.Fatalf("%s %s epoch %d, %s: session serves forecast %v [%v, %v], the zoo loop scores %s %v [%v, %v]",
							file, tr.Path, epoch, got.Name, got.ForecastBps, got.P10Bps, got.P90Bps, f.Name, f.Forecast, p10, p90)
					}
				}
				sess.Observe(actual)
				epoch++
			})
			if epoch != len(tr.Records) || epoch < 20 {
				t.Fatalf("%s %s: compared %d epochs of a %d-epoch trace", file, tr.Path, epoch, len(tr.Records))
			}
			for i, got := range sess.Predict().Families {
				want := stats.RMSRE(errs[i])
				if got.ErrorCount != len(errs[i]) || math.Float64bits(got.RMSRE) != math.Float64bits(want) {
					t.Errorf("%s %s, %s: session serves rmsre %v over %d errors, the zoo loop scores %v over %d",
						file, tr.Path, got.Name, got.RMSRE, got.ErrorCount, want, len(errs[i]))
				}
			}
		}
	}
}
