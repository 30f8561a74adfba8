package experiments

import (
	"fmt"

	"repro/internal/predict"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// AblationCongestionEvents — §3.3 / Goyal et al.: feed PFTK the flow's own
// RTT with (a) the raw packet loss rate p and (b) the congestion-event
// rate p′. The paper argues p′ is the quantity PFTK actually wants; this
// ablation quantifies the gap on our testbed ("posthumous" prediction, as
// in the original PFTK validation).
func AblationCongestionEvents(ds *testbed.Dataset) Result {
	withP := Errors(EvalFB(ds, predict.ModelPFTK, SourceFlow, 0))
	withCER := Errors(EvalFB(ds, predict.ModelPFTK, SourceFlowCER, 0))
	pre := Errors(EvalFB(ds, predict.ModelPFTK, SourcePre, 0))
	return Result{
		ID:    "ablation-p-vs-pprime",
		Title: "PFTK input ablation: packet loss rate p vs congestion-event rate p′ (flow-measured)",
		Notes: []string{
			"posthumous prediction in the spirit of the original PFTK validation;",
			"p′ should beat p because PFTK models loss events, not individual drops (§3.3)",
		},
		Tables: []Table{cdfTable("E quantiles", []string{"flow p", "flow p′", "a-priori p̂"},
			[][]float64{withP, withCER, pre})},
	}
}

// AblationAvailBw — Eq. 3's lossless branch: predict lossless epochs with
// min(W/T̂, Â) versus the naive W/T̂. Quantifies how much the avail-bw
// measurement buys.
func AblationAvailBw(ds *testbed.Dataset) Result {
	fb := predict.NewFB(predict.FBConfig{Model: predict.ModelPFTK})
	var withA, withoutA []float64
	for _, rec := range ds.AllRecords() {
		if rec.PreLoss > 0 {
			continue
		}
		in := predict.FBInputs{RTT: rec.PreRTT, LossRate: 0, AvailBw: rec.AvailBw}
		withA = append(withA, stats.RelativeError(fb.Predict(in), rec.Throughput))
		in.AvailBw = 0 // disables the avail-bw cap
		withoutA = append(withoutA, stats.RelativeError(fb.Predict(in), rec.Throughput))
	}
	return Result{
		ID:    "ablation-availbw",
		Title: "Lossless-branch ablation: min(W/T̂, Â) vs naive W/T̂",
		Notes: []string{"the avail-bw cap should remove the worst overestimates on lossless epochs"},
		Tables: []Table{cdfTable("E quantiles (lossless epochs)", []string{"with Â", "W/T̂ only"},
			[][]float64{withA, withoutA})},
	}
}

// AblationLSOComponents — split the LSO heuristic: outlier removal only,
// level-shift restart only, both, neither (per-trace RMSRE of HW).
func AblationLSOComponents(ds *testbed.Dataset) Result {
	mkHW := func() predict.HB { return predict.NewHoltWinters(0.8, 0.2) }
	variants := []struct {
		name string
		mk   func() predict.HB
	}{
		{"HW (none)", mkHW},
		{"HW outliers-only", func() predict.HB {
			// Disable shift detection by making γ unreachable.
			return predict.NewLSO(mkHW(), predict.LSOConfig{Gamma: 1e12, Psi: 0.4, MaxHistory: 32})
		}},
		{"HW shifts-only", func() predict.HB {
			return predict.NewLSO(mkHW(), predict.LSOConfig{Gamma: 0.3, Psi: 1e12, MaxHistory: 32})
		}},
		{"HW-LSO (both)", func() predict.HB {
			return predict.NewLSO(mkHW(), predict.DefaultLSOConfig())
		}},
	}
	names := make([]string, len(variants))
	samples := make([][]float64, len(variants))
	for i, v := range variants {
		names[i] = v.name
		samples[i] = hbPerTraceRMSRE(ds, v.mk)
	}
	return Result{
		ID:     "ablation-lso-components",
		Title:  "LSO component ablation: outlier removal vs level-shift restart (per-trace RMSRE, HW)",
		Notes:  []string{"both heuristics contribute; shifts matter most on non-stationary paths"},
		Tables: []Table{cdfTable("per-trace RMSRE quantiles", names, samples)},
	}
}

// AblationDelayedACK — the b parameter of the formulas: b=2 (delayed ACKs,
// matching the simulated receiver) versus b=1.
func AblationDelayedACK(ds *testbed.Dataset) Result {
	var b2, b1 []float64
	fb2 := predict.NewFB(predict.FBConfig{Model: predict.ModelPFTK, B: 2})
	fb1 := predict.NewFB(predict.FBConfig{Model: predict.ModelPFTK, B: 1})
	for _, rec := range ds.AllRecords() {
		if rec.PreLoss == 0 {
			continue // b only enters the PFTK branch
		}
		in := predict.FBInputs{RTT: rec.PreRTT, LossRate: rec.PreLoss, AvailBw: rec.AvailBw}
		b2 = append(b2, stats.RelativeError(fb2.Predict(in), rec.Throughput))
		b1 = append(b1, stats.RelativeError(fb1.Predict(in), rec.Throughput))
	}
	return Result{
		ID:     "ablation-delayed-ack",
		Title:  "Formula b parameter: b=2 (delayed ACKs) vs b=1 (lossy epochs)",
		Notes:  []string{"the simulated receiver delays ACKs, so b=2 matches the data generation"},
		Tables: []Table{cdfTable("E quantiles", []string{"b=2", "b=1"}, [][]float64{b2, b1})},
	}
}

// AblationHistoryLength — how much history HB needs: MA with n ∈
// {1,2,5,10,20,32} (per-trace RMSRE). Complements the paper's finding that
// 10-20 samples suffice.
func AblationHistoryLength(ds *testbed.Dataset) Result {
	var names []string
	var samples [][]float64
	for _, n := range []int{1, 2, 5, 10, 20, 32} {
		n := n
		names = append(names, fmt.Sprintf("%d-MA-LSO", n))
		samples = append(samples, hbPerTraceRMSRE(ds, func() predict.HB {
			return predict.NewLSO(predict.NewMA(n), predict.DefaultLSOConfig())
		}))
	}
	return Result{
		ID:     "ablation-history-length",
		Title:  "History length: per-trace RMSRE of n-MA-LSO",
		Notes:  []string{"paper: ~10 samples suffice; very long histories do not help (cf. Zhang et al.)"},
		Tables: []Table{cdfTable("per-trace RMSRE quantiles", names, samples)},
	}
}

// SummaryTable — the paper's §4.3/§6.2 headline numbers in one table, to
// be copied into EXPERIMENTS.md.
func SummaryTable(ds *testbed.Dataset) Result {
	fbErrs := Errors(EvalFB(ds, predict.ModelPFTK, SourcePre, 0))
	over := 0
	for _, e := range fbErrs {
		if e > 0 {
			over++
		}
	}
	fbTraceRMSRE := hbFBTraceRMSRE(ds)
	hwlso := hbPerTraceRMSRE(ds, func() predict.HB {
		return predict.NewLSO(predict.NewHoltWinters(0.8, 0.2), predict.DefaultLSOConfig())
	})
	hbUnder04 := 0
	for _, r := range hwlso {
		if r < 0.4 {
			hbUnder04++
		}
	}
	t := Table{Title: "headline numbers", Columns: []string{"metric", "paper", "measured"}}
	t.Rows = append(t.Rows,
		[]string{"FB frac |E|>1", "~0.50", fmt.Sprintf("%.3f", stats.FractionAbove(fbErrs, 1))},
		[]string{"FB frac |E|>9", "~0.10", fmt.Sprintf("%.3f", stats.FractionAbove(fbErrs, 9))},
		[]string{"FB frac overestimates", "~0.80", fmt.Sprintf("%.3f", safeFrac(over, len(fbErrs)))},
		[]string{"FB median per-trace RMSRE", "~2", fmt.Sprintf("%.3f", stats.Median(fbTraceRMSRE))},
		[]string{"FB P90 per-trace RMSRE", "~20", fmt.Sprintf("%.3f", stats.Percentile(fbTraceRMSRE, 90))},
		[]string{"HB(HW-LSO) frac traces RMSRE<0.4", "~0.90", fmt.Sprintf("%.3f", safeFrac(hbUnder04, len(hwlso)))},
		[]string{"HB(HW-LSO) median per-trace RMSRE", "<0.4", fmt.Sprintf("%.3f", stats.Median(hwlso))},
	)
	return Result{
		ID:     "summary",
		Title:  "Headline comparison with the paper",
		Tables: []Table{t},
	}
}

func hbFBTraceRMSRE(ds *testbed.Dataset) []float64 {
	fb := predict.NewFB(predict.FBConfig{Model: predict.ModelPFTK})
	var out []float64
	for _, tr := range ds.Traces {
		var errs []float64
		for _, rec := range tr.Records {
			errs = append(errs, stats.RelativeError(fb.Predict(predict.FBInputs{
				RTT: rec.PreRTT, LossRate: rec.PreLoss, AvailBw: rec.AvailBw,
			}), rec.Throughput))
		}
		out = append(out, stats.RMSRE(errs))
	}
	return out
}

// All returns every experiment that runs on the primary dataset, in paper
// order (Fig 11 needs the second dataset and is excluded here).
func All(ds *testbed.Dataset, baseIntervalMin float64) []Result {
	return []Result{
		Fig2(ds), Fig3(ds), Fig4(ds), Fig5(ds), Fig6(ds), Fig7(ds), Fig8(ds),
		Fig9(ds), Fig10(ds), Fig12(ds), Fig13(ds), Fig14(ds), Fig15(),
		Fig16(ds), Fig17(ds), Fig18(ds), Fig19(ds), Fig20(ds), Fig21(ds),
		Fig22(ds), Fig23(ds, baseIntervalMin),
		AblationCongestionEvents(ds), AblationAvailBw(ds),
		AblationLSOComponents(ds), AblationDelayedACK(ds),
		AblationHistoryLength(ds), SummaryTable(ds),
	}
}
