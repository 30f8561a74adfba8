package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/predict"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// Fig2 — CDF of the FB relative error E for all predictions, lossy-path
// predictions (PFTK branch) and lossless-path predictions (avail-bw
// branch). Paper headline: ~40% of epochs overestimate by >2× (E ≥ 1),
// ~10% by >10×, while underestimation is rare and mild; lossless
// predictions are markedly better.
func Fig2(ds *testbed.Dataset) Result {
	evals := EvalFB(ds, predict.ModelPFTK, SourcePre, 0)
	var all, lossy, lossless []float64
	for _, e := range evals {
		all = append(all, e.Err)
		if e.Lossy {
			lossy = append(lossy, e.Err)
		} else {
			lossless = append(lossless, e.Err)
		}
	}
	return Result{
		ID:    "fig2",
		Title: "CDF of FB prediction error E: all / lossy / lossless",
		Notes: []string{
			"paper: ~40% of predictions overestimate by ≥2x (E≥1); ~10% by ≥10x; underestimation below 10%",
		},
		Tables: []Table{cdfTable("E quantiles", []string{"all", "lossy", "lossless"},
			[][]float64{all, lossy, lossless})},
		Series: []Series{cdfSeries("all", all), cdfSeries("lossy", lossy), cdfSeries("lossless", lossless)},
	}
}

// Fig3 — CDFs of the absolute RTT and loss-rate increase during the target
// flow: T̃-T̂ (ms) and p̃-p̂.
func Fig3(ds *testbed.Dataset) Result {
	var dRTT, dLoss []float64
	for _, rec := range ds.AllRecords() {
		dRTT = append(dRTT, (rec.DurRTT-rec.PreRTT)*1e3)
		dLoss = append(dLoss, rec.DurLoss-rec.PreLoss)
	}
	return Result{
		ID:    "fig3",
		Title: "CDF of absolute RTT (ms) and loss-rate increase during the target flow",
		Notes: []string{
			"paper: ~50% of epochs show little RTT increase; ~40% gain 5-60 ms; loss rises 0.1-2% almost always",
		},
		Tables: []Table{cdfTable("increase quantiles", []string{"RTT inc (ms)", "loss inc"},
			[][]float64{dRTT, dLoss})},
		Series: []Series{cdfSeries("rtt_increase_ms", dRTT), cdfSeries("loss_increase", dLoss)},
	}
}

// Fig4 — CDF of the relative RTT increase (T̃-T̂)/T̂ during the target flow.
func Fig4(ds *testbed.Dataset) Result {
	var rel []float64
	for _, rec := range ds.AllRecords() {
		if rec.PreRTT > 0 {
			rel = append(rel, (rec.DurRTT-rec.PreRTT)/rec.PreRTT)
		}
	}
	return Result{
		ID:     "fig4",
		Title:  "CDF of relative RTT increase during target flow",
		Notes:  []string{"paper: ~20% of epochs have relative RTT increase > 0.5"},
		Tables: []Table{cdfTable("quantiles", []string{"(T̃-T̂)/T̂"}, [][]float64{rel})},
		Series: []Series{cdfSeries("rel_rtt_increase", rel)},
	}
}

// Fig5 — CDF of the relative loss-rate increase (p̃-p̂)/p̂, for epochs that
// were lossy before the transfer (p̂ > 0).
func Fig5(ds *testbed.Dataset) Result {
	var rel []float64
	for _, rec := range ds.AllRecords() {
		if rec.PreLoss > 0 {
			rel = append(rel, (rec.DurLoss-rec.PreLoss)/rec.PreLoss)
		}
	}
	return Result{
		ID:     "fig5",
		Title:  "CDF of relative loss-rate increase during target flow (lossy epochs)",
		Notes:  []string{"paper: >70% of lossy epochs have relative loss increase > 1.25 (p̃ > 2.25·p̂)"},
		Tables: []Table{cdfTable("quantiles", []string{"(p̃-p̂)/p̂"}, [][]float64{rel})},
		Series: []Series{cdfSeries("rel_loss_increase", rel)},
	}
}

// Fig6 — FB error on lossy epochs using in-flow probing estimates (T̃, p̃)
// versus the standard pre-flow estimates (T̂, p̂). Paper: in-flow inputs
// roughly symmetrize and shrink the error, but large errors remain —
// evidence of the TCP-vs-periodic-probing sampling gap.
func Fig6(ds *testbed.Dataset) Result {
	pre := EvalFB(ds, predict.ModelPFTK, SourcePre, 0)
	dur := EvalFB(ds, predict.ModelPFTK, SourceDuring, 0)
	var preE, durE []float64
	for i := range pre {
		if pre[i].Lossy {
			preE = append(preE, pre[i].Err)
		}
		if dur[i].Lossy {
			durE = append(durE, dur[i].Err)
		}
	}
	return Result{
		ID:    "fig6",
		Title: "FB error using (T̃,p̃) during flow vs (T̂,p̂) before flow — lossy epochs",
		Notes: []string{
			"paper: with in-flow inputs ~80% of errors fall in (-3,3) and the CDF becomes symmetric; big errors persist",
		},
		Tables: []Table{cdfTable("E quantiles", []string{"during (T̃,p̃)", "before (T̂,p̂)"},
			[][]float64{durE, preE})},
		Series: []Series{cdfSeries("during", durE), cdfSeries("before", preE)},
	}
}

// Fig7 — per-path FB error: median and 10/90th percentiles of E.
func Fig7(ds *testbed.Dataset) Result {
	evals := EvalFB(ds, predict.ModelPFTK, SourcePre, 0)
	byPath := make(map[string][]float64)
	var order []string
	for _, e := range evals {
		if _, ok := byPath[e.Rec.Path]; !ok {
			order = append(order, e.Rec.Path)
		}
		byPath[e.Rec.Path] = append(byPath[e.Rec.Path], e.Err)
	}
	t := Table{Title: "per-path E percentiles", Columns: []string{"path", "P10", "median", "P90"}}
	for _, p := range order {
		es := byPath[p]
		t.Rows = append(t.Rows, []string{
			p,
			fmt.Sprintf("%.2f", stats.Percentile(es, 10)),
			fmt.Sprintf("%.2f", stats.Percentile(es, 50)),
			fmt.Sprintf("%.2f", stats.Percentile(es, 90)),
		})
	}
	return Result{
		ID:    "fig7",
		Title: "Variation of FB prediction error across paths",
		Notes: []string{
			"paper: most paths mainly overestimate; ~10/35 paths have much larger errors and wider ranges (up to E=10+)",
		},
		Tables: []Table{t},
	}
}

// scatterResult summarizes a scatter plot with a correlation figure and a
// binned table.
func scatterResult(id, title, xname string, xs, ys []float64, notes []string, logBins []float64, binLabel func(lo, hi float64) string) Result {
	corr := stats.Pearson(xs, ys)
	t := Table{
		Title:   fmt.Sprintf("%s vs E (Pearson r = %.3f)", xname, corr),
		Columns: []string{binLabel(0, 0), "n", "median E", "P90 E", "frac E>10"},
	}
	for i := 0; i+1 < len(logBins); i++ {
		lo, hi := logBins[i], logBins[i+1]
		var es []float64
		for j, x := range xs {
			if x >= lo && x < hi {
				es = append(es, ys[j])
			}
		}
		if len(es) == 0 {
			continue
		}
		over := 0
		for _, e := range es {
			if e > 10 {
				over++
			}
		}
		t.Rows = append(t.Rows, []string{
			binLabel(lo, hi),
			fmt.Sprintf("%d", len(es)),
			fmt.Sprintf("%.2f", stats.Median(es)),
			fmt.Sprintf("%.2f", stats.Percentile(es, 90)),
			fmt.Sprintf("%.3f", safeFrac(over, len(es))),
		})
	}
	return Result{
		ID:     id,
		Title:  title,
		Notes:  notes,
		Tables: []Table{t},
		Series: []Series{{Name: "scatter", X: xs, Y: ys}},
	}
}

// Fig8 — actual throughput R versus FB error. Paper: the huge
// overestimates concentrate on transfers with very small throughput
// (42% of samples with R ≤ 0.5 Mbps have E > 10 vs 0.2% above).
func Fig8(ds *testbed.Dataset) Result {
	evals := EvalFB(ds, predict.ModelPFTK, SourcePre, 0)
	var xs, ys []float64
	for _, e := range evals {
		xs = append(xs, e.Rec.Throughput/1e6)
		ys = append(ys, e.Err)
	}
	res := scatterResult("fig8", "Actual throughput vs FB prediction error",
		"R (Mbps)", xs, ys,
		[]string{"paper: large E>10 errors occur almost exclusively at R ≤ 0.5 Mbps"},
		[]float64{0, 0.1, 0.25, 0.5, 1, 2, 5, 10, 50, math.Inf(1)},
		func(lo, hi float64) string {
			if lo == 0 && hi == 0 {
				return "R bin (Mbps)"
			}
			return fmt.Sprintf("[%.2f,%.2f)", lo, hi)
		})
	// The paper's specific split at 0.5 Mbps.
	var lowBig, low, hiBig, hi int
	for i, x := range xs {
		if x <= 0.5 {
			low++
			if ys[i] > 10 {
				lowBig++
			}
		} else {
			hi++
			if ys[i] > 10 {
				hiBig++
			}
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"measured: frac E>10 at R≤0.5Mbps = %.3f (n=%d); at R>0.5Mbps = %.3f (n=%d)",
		safeFrac(lowBig, low), low, safeFrac(hiBig, hi), hi))
	return res
}

// Fig9 — a-priori loss rate p̂ versus FB error (lossy epochs only).
// Paper: no visible correlation.
func Fig9(ds *testbed.Dataset) Result {
	evals := EvalFB(ds, predict.ModelPFTK, SourcePre, 0)
	var xs, ys []float64
	for _, e := range evals {
		if e.Lossy {
			xs = append(xs, e.Rec.PreLoss)
			ys = append(ys, e.Err)
		}
	}
	return scatterResult("fig9", "A-priori loss rate vs FB prediction error (lossy epochs)",
		"p̂", xs, ys,
		[]string{"paper: prediction error is not correlated with the path's prior loss rate"},
		[]float64{0, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 1},
		func(lo, hi float64) string {
			if lo == 0 && hi == 0 {
				return "p̂ bin"
			}
			return fmt.Sprintf("[%.3f,%.3f)", lo, hi)
		})
}

// Fig10 — a-priori RTT T̂ versus FB error. Paper: no positive correlation.
func Fig10(ds *testbed.Dataset) Result {
	evals := EvalFB(ds, predict.ModelPFTK, SourcePre, 0)
	var xs, ys []float64
	for _, e := range evals {
		xs = append(xs, e.Rec.PreRTT*1e3)
		ys = append(ys, e.Err)
	}
	return scatterResult("fig10", "A-priori RTT vs FB prediction error",
		"T̂ (ms)", xs, ys,
		[]string{"paper: no positive correlation between RTT and prediction error"},
		[]float64{0, 25, 50, 75, 100, 150, 200, 300, math.Inf(1)},
		func(lo, hi float64) string {
			if lo == 0 && hi == 0 {
				return "T̂ bin (ms)"
			}
			return fmt.Sprintf("[%.0f,%.0f)", lo, hi)
		})
}

// Fig11 — FB error for transfer prefixes of different lengths, using the
// second dataset's checkpointed transfers. Paper: no noticeable
// correlation between transfer duration and error.
func Fig11(ds2 *testbed.Dataset, checkpointDurations []float64, fullDuration float64) Result {
	fb := predict.NewFB(predict.FBConfig{Model: predict.ModelPFTK})
	names := make([]string, 0, len(checkpointDurations)+1)
	samples := make([][]float64, len(checkpointDurations)+1)
	for _, d := range checkpointDurations {
		names = append(names, fmt.Sprintf("%.0fs", d))
	}
	names = append(names, fmt.Sprintf("%.0fs (full)", fullDuration))
	for _, rec := range ds2.AllRecords() {
		pred := fb.Predict(fbInputs(rec, SourcePre))
		for i := range checkpointDurations {
			if i < len(rec.Checkpoints) && rec.Checkpoints[i] > 0 {
				samples[i] = append(samples[i], stats.RelativeError(pred, rec.Checkpoints[i]))
			}
		}
		samples[len(checkpointDurations)] = append(samples[len(checkpointDurations)],
			stats.RelativeError(pred, rec.Throughput))
	}
	return Result{
		ID:     "fig11",
		Title:  "FB prediction error for transfer prefixes of different durations (dataset 2)",
		Notes:  []string{"paper: no noticeable correlation between prediction error and transfer duration"},
		Tables: []Table{cdfTable("E quantiles by prefix", names, samples)},
	}
}

// Fig12 — per-path RMSRE of FB prediction for window-limited (small W)
// versus congestion-limited (large W) transfers, on paths where the small
// window actually limits the transfer. Paper: window-limited transfers are
// far more predictable (RMSRE < 1 on 14 of 19 paths).
func Fig12(ds *testbed.Dataset) Result {
	type agg struct {
		largeE, smallE []float64
		limited, total int
	}
	byPath := make(map[string]*agg)
	var order []string
	smallWindow := 0
	for _, tr := range ds.Traces {
		for _, rec := range tr.Records {
			if rec.SmallWindowBytes == 0 {
				continue
			}
			smallWindow = rec.SmallWindowBytes
			a := byPath[rec.Path]
			if a == nil {
				a = &agg{}
				byPath[rec.Path] = a
				order = append(order, rec.Path)
			}
			fbL := predict.NewFB(predict.FBConfig{Model: predict.ModelPFTK, MaxWindowBytes: 1 << 20})
			fbS := predict.NewFB(predict.FBConfig{Model: predict.ModelPFTK, MaxWindowBytes: rec.SmallWindowBytes})
			in := fbInputs(rec, SourcePre)
			a.largeE = append(a.largeE, stats.RelativeError(fbL.Predict(in), rec.Throughput))
			a.smallE = append(a.smallE, stats.RelativeError(fbS.Predict(in), rec.SmallThroughput))
			a.total++
			if rec.SmallWindowLimited {
				a.limited++
			}
		}
	}
	t := Table{
		Title:   fmt.Sprintf("per-path RMSRE, W=1MB vs W=%dKB (paths where the small window limits)", smallWindow/1024),
		Columns: []string{"path", "limited frac", "RMSRE large-W", "RMSRE small-W", "ratio"},
	}
	better := 0
	under1 := 0
	kept := 0
	for _, p := range order {
		a := byPath[p]
		if safeFrac(a.limited, a.total) < 0.5 {
			continue // not a window-limited path for this W
		}
		kept++
		rl := stats.RMSRE(a.largeE)
		rs := stats.RMSRE(a.smallE)
		if rs < rl {
			better++
		}
		if rs < 1 {
			under1++
		}
		ratio := math.Inf(1)
		if rs > 0 {
			ratio = rl / rs
		}
		t.Rows = append(t.Rows, []string{
			p,
			fmt.Sprintf("%.2f", safeFrac(a.limited, a.total)),
			fmt.Sprintf("%.3f", rl),
			fmt.Sprintf("%.3f", rs),
			fmt.Sprintf("%.1f", ratio),
		})
	}
	return Result{
		ID:    "fig12",
		Title: "FB predictability: window-limited vs congestion-limited transfers",
		Notes: []string{
			"paper: window-limited RMSRE lower on every path, often by a large factor; RMSRE<1 on 14/19 paths",
			fmt.Sprintf("measured: small-W RMSRE lower on %d/%d window-limited paths; RMSRE<1 on %d", better, kept, under1),
		},
		Tables: []Table{t},
	}
}

// Fig13 — FB error CDF with the revised PFTK formula versus the original.
// Paper: the difference is negligible compared to the overall FB error.
func Fig13(ds *testbed.Dataset) Result {
	orig := Errors(EvalFB(ds, predict.ModelPFTK, SourcePre, 0))
	revised := Errors(EvalFB(ds, predict.ModelRevisedPFTK, SourcePre, 0))
	return Result{
		ID:    "fig13",
		Title: "FB error with the revised PFTK model (Chen et al.) vs original PFTK",
		Notes: []string{"paper: difference between the two formulas is negligible relative to FB error"},
		Tables: []Table{cdfTable("E quantiles", []string{"PFTK", "revised PFTK"},
			[][]float64{orig, revised})},
		Series: []Series{cdfSeries("pftk", orig), cdfSeries("revised", revised)},
	}
}

// Fig14 — FB error CDF using MA(10)-smoothed RTT/loss inputs versus the
// latest-sample inputs. Paper: nearly identical — input noise is not the
// bottleneck.
func Fig14(ds *testbed.Dataset) Result {
	latest := Errors(EvalFB(ds, predict.ModelPFTK, SourcePre, 0))
	smoothed := Errors(EvalFBSmoothed(ds))
	return Result{
		ID:    "fig14",
		Title: "FB error with MA(10)-smoothed T̂,p̂ vs latest-sample inputs",
		Notes: []string{"paper: the two predictors are very similar; estimation noise is a minor error source"},
		Tables: []Table{cdfTable("E quantiles", []string{"latest", "smoothed"},
			[][]float64{latest, smoothed})},
		Series: []Series{cdfSeries("latest", latest), cdfSeries("smoothed", smoothed)},
	}
}

// Fig19 — CDF of per-trace RMSRE for the FB predictor, to compare with the
// HB predictors of Figs 16/17. Paper: FB median per-trace RMSRE ≈ 2 and
// the 90th percentile ≈ 20, versus RMSRE < 0.4 for ~90% of traces with HB.
func Fig19(ds *testbed.Dataset) Result {
	fb := predict.NewFB(predict.FBConfig{Model: predict.ModelPFTK})
	var rmsres []float64
	for _, tr := range ds.Traces {
		var errs []float64
		for _, rec := range tr.Records {
			errs = append(errs, stats.RelativeError(fb.Predict(fbInputs(rec, SourcePre)), rec.Throughput))
		}
		rmsres = append(rmsres, stats.RMSRE(errs))
	}
	hb := hbPerTraceRMSRE(ds, func() predict.HB {
		return predict.NewLSO(predict.NewHoltWinters(0.8, 0.2), predict.DefaultLSOConfig())
	})
	sort.Float64s(rmsres)
	return Result{
		ID:    "fig19",
		Title: "CDF of per-trace RMSRE: FB vs HB (HW-LSO)",
		Notes: []string{
			"paper: HB gives RMSRE<0.4 for ~90% of traces; FB median RMSRE ≈ 2, P90 ≈ 20",
		},
		Tables: []Table{cdfTable("per-trace RMSRE quantiles", []string{"FB (PFTK)", "HB (HW-LSO)"},
			[][]float64{rmsres, hb})},
		Series: []Series{cdfSeries("fb_rmsre", rmsres), cdfSeries("hb_rmsre", hb)},
	}
}
