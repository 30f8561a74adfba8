package experiments

import (
	"fmt"
	"math"

	"repro/internal/predict"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// ExtZoo scores the served predictor zoo — the paper's HB trio with LSO
// and the formula-based predictor — offline over every trace of the
// primary dataset. Each trace drives the serving layer's own
// predict.Ensemble, with the pre-flow measurements of each epoch feeding
// FB.
//
// Four views come out: the per-trace RMSRE CDF per family, a tournament
// table (how often each family is the per-trace best, i.e. what an oracle
// selector would pick), the empirical coverage of each family's
// residual-window [p10,p90] interval forecasts, and what /v1/predict
// serves: the selected family's forecast and interval.
func ExtZoo(ds *testbed.Dataset) Result {
	z := scoreZoo(ds)

	tournament := Table{
		Title:   "oracle tournament: per-trace wins and [p10,p90] interval coverage (nominal 0.80)",
		Columns: []string{"family", "wins", "median RMSRE", "coverage", "intervals"},
	}
	for i, name := range z.names {
		cov := "-"
		if z.total[i] > 0 {
			cov = fmt.Sprintf("%.2f", float64(z.in[i])/float64(z.total[i]))
		}
		tournament.Rows = append(tournament.Rows, []string{
			name,
			fmt.Sprintf("%d", z.wins[i]),
			fmt.Sprintf("%.2f", stats.Median(z.rmsres[i])),
			cov,
			fmt.Sprintf("%d", z.total[i]),
		})
	}
	served := Table{
		Title:   "served: the selected family's forecast and [p10,p90], scored from zero-based epoch index k",
		Columns: []string{"epochs", "median RMSRE", "median regret", "coverage", "intervals"},
	}
	for j, s := range z.served {
		served.Rows = append(served.Rows, []string{
			fmt.Sprintf("k ≥ %d", servedFrom[j]),
			fmt.Sprintf("%.3f", s.rmsre),
			fmt.Sprintf("%.3f", s.regret),
			fmt.Sprintf("%.3f", s.coverage),
			fmt.Sprintf("%d", s.intervals),
		})
	}
	return Result{
		ID:    "ext-zoo",
		Title: "Extension: predictor-zoo tournament — the paper's HB trio and FB, quantile calibration",
		Notes: []string{
			"every family sees the same per-epoch stream: pre-flow measurements, then the achieved throughput;",
			"wins = traces where the family has the lowest RMSRE (the best-in-hindsight an online selector chases);",
			"coverage = fraction of actuals inside the family's [p10,p90] forecast interval once calibrated;",
			"served regret = the selected family's per-trace RMSRE minus the oracle's (the per-trace winner's)",
		},
		Tables: []Table{
			cdfTable("per-trace RMSRE quantiles", z.names, z.rmsres),
			tournament,
			served,
		},
	}
}

// servedFrom holds the zero-based epoch indices from which the selected
// family is scored: k ≥ 1 skips the first epoch, on which only FB can
// forecast, and k ≥ 10 skips the warm-up of the error windows.
var servedFrom = [2]int{1, 10}

// zooScore is a dataset replayed through the served zoo, trace by trace.
type zooScore struct {
	names  []string
	rmsres [][]float64 // per family, its per-trace RMSREs (Eq. 5)
	wins   []int       // per family, the traces on which its RMSRE is the lowest
	// in and total pool, per family, the actuals inside its calibrated
	// [p10,p90] and the calibrated intervals.
	in, total []int
	served    [2]servedScore // one per servedFrom
}

// servedScore is the accuracy of what /v1/predict serves, scored from one
// servedFrom index on.
type servedScore struct {
	rmsre     float64 // median per-trace RMSRE of the selected family
	regret    float64 // median per-trace RMSRE above the oracle's
	coverage  float64 // pooled fraction of actuals inside a calibrated [p10,p90]
	intervals int     // calibrated intervals pooled over the traces
}

// scoreZoo replays every trace of ds with at least five epochs through the
// zoo and summarises it per family, for the per-trace oracle and for the
// selected family.
func scoreZoo(ds *testbed.Dataset) zooScore {
	names := predict.NewEnsemble().Names()
	n := len(names)
	z := zooScore{names: names, rmsres: make([][]float64, n), wins: make([]int, n), in: make([]int, n), total: make([]int, n)}
	var served, regret [2][]float64
	var pooled [2]scored
	for _, tr := range ds.Traces {
		if len(tr.Records) < 5 {
			continue
		}
		families, selected := replayZoo(tr, nil)
		best, bestV := -1, math.Inf(1)
		for i, f := range families {
			z.in[i] += f.in
			z.total[i] += f.total
			if len(f.errs) == 0 {
				continue
			}
			v := stats.RMSRE(f.errs)
			z.rmsres[i] = append(z.rmsres[i], v)
			if v < bestV {
				best, bestV = i, v
			}
		}
		if best >= 0 {
			z.wins[best]++
		}
		for j, s := range selected {
			pooled[j].in += s.in
			pooled[j].total += s.total
			if len(s.errs) == 0 {
				continue
			}
			v := stats.RMSRE(s.errs)
			served[j] = append(served[j], v)
			if best >= 0 {
				regret[j] = append(regret[j], v-bestV)
			}
		}
	}
	for j, p := range pooled {
		z.served[j] = servedScore{rmsre: stats.Median(served[j]), regret: stats.Median(regret[j]), intervals: p.total}
		if p.total > 0 {
			z.served[j].coverage = float64(p.in) / float64(p.total)
		}
	}
	return z
}

// scored is one stream of forecasts scored against the actuals: their
// relative errors (Eq. 4), and of the calibrated [p10,p90] intervals among
// them, the total and the in that held the actual.
type scored struct {
	errs      []float64
	in, total int
}

func (s *scored) add(f predict.FamilyView, actual float64) {
	s.errs = append(s.errs, stats.RelativeError(f.Forecast, actual))
	if f.Calibrated {
		s.total++
		if actual >= f.Quantiles.P10 && actual <= f.Quantiles.P90 {
			s.in++
		}
	}
}

// replayZoo replays one trace through a fresh predict.Ensemble — the
// tournament the prediction service runs per path — feeding each epoch's
// pre-flow measurements and then its achieved throughput. It scores each
// family on every epoch it had a positive forecast, and the selected
// family from each servedFrom index on. visit, when non-nil, sees each
// epoch's index k and view just before the throughput is absorbed.
func replayZoo(tr testbed.Trace, visit func(k int, v predict.View, actual float64)) (families []scored, selected [2]scored) {
	e := predict.NewEnsemble()
	families = make([]scored, len(e.Names()))
	for k, rec := range tr.Records {
		e.SetMeasurement(predict.FBInputs{RTT: rec.PreRTT, LossRate: rec.PreLoss, AvailBw: rec.AvailBw})
		v := e.View()
		for i, f := range v.Families {
			if f.Ready && f.Forecast > 0 {
				families[i].add(f, rec.Throughput)
			}
		}
		for j, from := range servedFrom {
			if v.Selected >= 0 && k >= from {
				selected[j].add(v.Families[v.Selected], rec.Throughput)
			}
		}
		if visit != nil {
			visit(k, v, rec.Throughput)
		}
		e.Observe(rec.Throughput)
	}
	return families, selected
}
