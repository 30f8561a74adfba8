package experiments

import (
	"fmt"
	"math"

	"repro/internal/predict"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// ExtZoo scores the full predictor zoo — the paper's LSO-wrapped HB trio,
// the stability-aware switcher (Sun et al.), the formula-based predictor,
// the online feature regression (Vazhkudai & Schopf style) and the
// empirical conditional method — offline over every trace of the primary
// dataset. Each trace drives the serving layer's own predict.Ensemble,
// with the pre-flow measurements of each epoch feeding FB and the
// measurement-conditioned families.
//
// Three views come out: the per-trace RMSRE CDF per family, a tournament
// table (how often each family is the per-trace best, i.e. what an oracle
// selector would pick), and the empirical coverage of each family's
// [p10,p90] interval forecasts — residual-window quantiles for the point
// predictors, native conditional quantiles for the ECM.
func ExtZoo(ds *testbed.Dataset) Result {
	names, _ := zooFamilies()
	n := len(names)
	rmsres := make([][]float64, n)
	wins := make([]int, n)
	covIn := make([]int, n)
	covTotal := make([]int, n)

	for _, tr := range ds.Traces {
		if len(tr.Records) < 5 {
			continue
		}
		// Interval coverage, scored before each epoch's error enters the
		// calibration windows.
		errs := zooErrors(tr, func(fams []predict.FamilyView, actual float64) {
			for i, f := range fams {
				if f.Ready && f.Forecast > 0 && f.Calibrated {
					covTotal[i]++
					if actual >= f.Quantiles.P10 && actual <= f.Quantiles.P90 {
						covIn[i]++
					}
				}
			}
		})
		best, bestV := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if len(errs[i]) == 0 {
				continue
			}
			v := stats.RMSRE(errs[i])
			rmsres[i] = append(rmsres[i], v)
			if v < bestV {
				best, bestV = i, v
			}
		}
		if best >= 0 {
			wins[best]++
		}
	}

	tournament := Table{
		Title:   "oracle tournament: per-trace wins and [p10,p90] interval coverage (nominal 0.80)",
		Columns: []string{"family", "wins", "median RMSRE", "coverage", "intervals"},
	}
	for i, name := range names {
		cov := "-"
		if covTotal[i] > 0 {
			cov = fmt.Sprintf("%.2f", float64(covIn[i])/float64(covTotal[i]))
		}
		tournament.Rows = append(tournament.Rows, []string{
			name,
			fmt.Sprintf("%d", wins[i]),
			fmt.Sprintf("%.2f", stats.Median(rmsres[i])),
			cov,
			fmt.Sprintf("%d", covTotal[i]),
		})
	}
	return Result{
		ID:    "ext-zoo",
		Title: "Extension: predictor-zoo tournament — regression & ECM families, quantile calibration",
		Notes: []string{
			"every family sees the same per-epoch stream: pre-flow measurements, then the achieved throughput;",
			"wins = traces where the family has the lowest RMSRE (the best-in-hindsight an online selector chases);",
			"coverage = fraction of actuals inside the family's [p10,p90] forecast interval once calibrated",
		},
		Tables: []Table{
			cdfTable("per-trace RMSRE quantiles", names, rmsres),
			tournament,
		},
	}
}

// zooFamilies returns the family names of the zoo in order, and the index
// of FB among them.
func zooFamilies() ([]string, int) {
	e := predict.NewEnsemble(predict.EnsembleConfig{})
	return e.Names(), e.View().FB
}

// zooErrors replays one trace through a fresh default predict.Ensemble —
// the tournament the prediction service runs per path — feeding each
// epoch's pre-flow measurements and then its achieved throughput. It
// returns each family's series of relative errors (Eq. 4) over the whole
// trace, one per epoch on which the family had a positive forecast.
// visit, when non-nil, sees every epoch's family views just before the
// throughput is absorbed.
func zooErrors(tr testbed.Trace, visit func(fams []predict.FamilyView, actual float64)) [][]float64 {
	e := predict.NewEnsemble(predict.EnsembleConfig{})
	var errs [][]float64
	for _, rec := range tr.Records {
		e.SetMeasurement(predict.FBInputs{RTT: rec.PreRTT, LossRate: rec.PreLoss, AvailBw: rec.AvailBw})
		fams := e.View().Families
		if errs == nil {
			errs = make([][]float64, len(fams))
		}
		for i, f := range fams {
			if f.Ready && f.Forecast > 0 {
				errs[i] = append(errs[i], stats.RelativeError(f.Forecast, rec.Throughput))
			}
		}
		if visit != nil {
			visit(fams, rec.Throughput)
		}
		e.Observe(rec.Throughput)
	}
	return errs
}
