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

// TestServedSelectionAccuracy pins the accuracy of what /v1/predict
// serves. Every trace of the committed datasets is replayed through
// predict.Ensemble in ExtZoo's order — measurement, view, observation —
// and the selected family's forecast and [p10,p90] are scored by
// zero-based epoch index k: the median per-trace RMSRE (Eq. 5) from k ≥ 1
// and from k ≥ 10, and the fraction of calibrated intervals that held the
// actual, pooled over the traces. A change that serves worse forecasts
// fails here.
func TestServedSelectionAccuracy(t *testing.T) {
	for _, c := range []struct {
		file            string
		rmsre1, rmsre10 float64 // ceilings on the median per-trace RMSRE
		cover1, cover10 float64 // floors on the [p10,p90] coverage
	}{
		{"d1-seed1.json.gz", 0.20, 0.20, 0.68, 0.71},
		{"cc-seed1.json.gz", 0.20, 0.15, 0.75, 0.77},
		{"d2-seed1.json.gz", 0.15, 0.15, 0.66, 0.58},
	} {
		ds, err := traceio.Load(filepath.Join("..", "..", "data", c.file))
		if err != nil {
			t.Fatal(err)
		}
		var rmsres [2][]float64
		var in, total [2]int
		for _, tr := range ds.Traces {
			e := predict.NewEnsemble()
			var errs [2][]float64
			for k, rec := range tr.Records {
				e.SetMeasurement(predict.FBInputs{RTT: rec.PreRTT, LossRate: rec.PreLoss, AvailBw: rec.AvailBw})
				if v := e.View(); k >= 1 && v.Selected >= 0 {
					f := v.Families[v.Selected]
					for i, from := range []int{1, 10} {
						if k < from {
							continue
						}
						errs[i] = append(errs[i], stats.RelativeError(f.Forecast, rec.Throughput))
						if f.Calibrated {
							total[i]++
							if rec.Throughput >= f.Quantiles.P10 && rec.Throughput <= f.Quantiles.P90 {
								in[i]++
							}
						}
					}
				}
				e.Observe(rec.Throughput)
			}
			for i := range errs {
				if len(errs[i]) > 0 {
					rmsres[i] = append(rmsres[i], stats.RMSRE(errs[i]))
				}
			}
		}
		r1, r10 := stats.Median(rmsres[0]), stats.Median(rmsres[1])
		c1, c10 := float64(in[0])/float64(total[0]), float64(in[1])/float64(total[1])
		t.Logf("%s: median RMSRE %.3f (k ≥ 1) %.3f (k ≥ 10); coverage %.3f (k ≥ 1) %.3f (k ≥ 10)", c.file, r1, r10, c1, c10)
		if !(r1 <= c.rmsre1 && r10 <= c.rmsre10 && c1 >= c.cover1 && c10 >= c.cover10) {
			t.Errorf("%s: served accuracy outside the bounds: RMSRE ≤ %.2f and %.2f, coverage ≥ %.2f and %.2f",
				c.file, c.rmsre1, c.rmsre10, c.cover1, c.cover10)
		}
	}
}
