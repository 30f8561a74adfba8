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
// family's forecast and [p10,p90], and which family is selected, must be
// identical, and after the last epoch each family's served rmsre and
// error_count must be the Eq. 5 RMSRE and the count of the errors the zoo
// loop scored, bit for bit.
func TestZooLoopServesWhatSessionServes(t *testing.T) {
	for _, file := range []string{"d1-seed1.json.gz", "cc-seed1.json.gz"} {
		ds, err := traceio.Load(filepath.Join("..", "..", "data", file))
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range ds.Traces {
			sess := predsvc.NewRegistry(predsvc.Config{}).GetOrCreate(tr.Path)
			families, _ := replayZoo(tr, func(k int, v predict.View, actual float64) {
				rec := tr.Records[k]
				sess.SetMeasurement(predict.FBInputs{RTT: rec.PreRTT, LossRate: rec.PreLoss, AvailBw: rec.AvailBw})
				var p predsvc.Prediction
				sess.PredictInto(&p, &predsvc.FBState{})
				if len(p.Families) != len(v.Families) {
					t.Fatalf("session serves %d families, the zoo loop runs %d", len(p.Families), len(v.Families))
				}
				for i, f := range v.Families {
					var p10, p90 float64
					if f.Calibrated {
						p10, p90 = f.Quantiles.P10, f.Quantiles.P90
					}
					got := p.Families[i]
					if got.Name != f.Name || got.ForecastBps != f.Forecast || got.P10Bps != p10 || got.P90Bps != p90 || (i == v.Selected) != (p.Family == f.Name) {
						t.Fatalf("%s %s epoch %d, %s: session serves forecast %v [%v, %v] and selects %q, the zoo loop scores %s %v [%v, %v] and selects %d",
							file, tr.Path, k, got.Name, got.ForecastBps, got.P10Bps, got.P90Bps, p.Family, f.Name, f.Forecast, p10, p90, v.Selected)
					}
				}
				sess.Observe(actual)
			})
			if n := int(sess.Observations()); n != len(tr.Records) || n < 20 {
				t.Fatalf("%s %s: compared %d epochs of a %d-epoch trace", file, tr.Path, n, len(tr.Records))
			}
			var p predsvc.Prediction
			sess.PredictInto(&p, &predsvc.FBState{})
			for i, got := range p.Families {
				want := stats.RMSRE(families[i].errs)
				if got.ErrorCount != len(families[i].errs) || math.Float64bits(got.RMSRE) != math.Float64bits(want) {
					t.Errorf("%s %s, %s: session serves rmsre %v over %d errors, the zoo loop scores %v over %d",
						file, tr.Path, got.Name, got.RMSRE, got.ErrorCount, want, len(families[i].errs))
				}
			}
		}
	}
}

// TestServedSelectionAccuracy pins the accuracy of what /v1/predict
// serves, on the served table ExtZoo prints: every trace of the committed
// datasets is replayed through predict.Ensemble, and the selected family's
// forecast and [p10,p90] are scored by zero-based epoch index k — the
// median per-trace RMSRE (Eq. 5) from k ≥ 1 and from k ≥ 10, and the
// fraction of calibrated intervals that held the actual, pooled over the
// traces. Coverage is held to the nominal 0.80 within 0.05 from k ≥ 10, so
// an interval that is too wide fails as well as one that is too narrow. A
// change that serves worse forecasts or intervals fails here.
func TestServedSelectionAccuracy(t *testing.T) {
	for _, c := range []struct {
		file            string
		rmsre1, rmsre10 float64 // ceilings on the median per-trace RMSRE
		band            bool    // coverage from k ≥ 10 has a ceiling as well as a floor
	}{
		{"d1-seed1.json.gz", 0.20, 0.20, true},
		{"cc-seed1.json.gz", 0.20, 0.15, true},
		// d2 has 12 intervals from k ≥ 10: too few to fail for being wide.
		{"d2-seed1.json.gz", 0.15, 0.15, false},
	} {
		ds, err := traceio.Load(filepath.Join("..", "..", "data", c.file))
		if err != nil {
			t.Fatal(err)
		}
		s := scoreZoo(ds).served
		r1, r10, c1, c10 := s[0].rmsre, s[1].rmsre, s[0].coverage, s[1].coverage
		t.Logf("%s: median RMSRE %.3f (k ≥ 1) %.3f (k ≥ 10); coverage %.3f (k ≥ 1) %.3f (k ≥ 10)", c.file, r1, r10, c1, c10)
		if !(r1 <= c.rmsre1 && r10 <= c.rmsre10 && c1 >= 0.75 && c10 >= 0.75 && (!c.band || c10 <= 0.85)) {
			t.Errorf("%s: served accuracy outside the bounds: RMSRE ≤ %.2f and %.2f, coverage ≥ 0.75 (k ≥ 1) and 0.80 ± 0.05 (k ≥ 10, ceiling %v)",
				c.file, c.rmsre1, c.rmsre10, c.band)
		}
	}
}
