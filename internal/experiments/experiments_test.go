package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/predict"
	"repro/internal/testbed"
)

// synthDataset fabricates a small dataset with known properties so the
// experiment runners can be tested without running the simulator.
func synthDataset() *testbed.Dataset {
	mkRec := func(path, class string, ep int, pre, dur, tput float64, preLoss float64) testbed.EpochRecord {
		return testbed.EpochRecord{
			Path: path, Class: class, Epoch: ep,
			AvailBw: tput * 1.1, AvailBwTrue: tput,
			PreRTT: pre, DurRTT: dur,
			PreLoss: preLoss, DurLoss: preLoss * 3,
			Throughput: tput, FlowRTT: dur, FlowLoss: preLoss * 4,
			FlowEventRate:      preLoss / 2,
			SmallThroughput:    tput / 3,
			SmallWindowBytes:   20 * 1024,
			SmallWindowLimited: true,
			Checkpoints:        []float64{tput * 0.9, tput * 0.95},
		}
	}
	var ds testbed.Dataset
	ds.Label = "synth"
	for p := 0; p < 3; p++ {
		for trIdx := 0; trIdx < 2; trIdx++ {
			tr := testbed.Trace{Path: pathName(p), Class: "us", Index: trIdx}
			for ep := 0; ep < 30; ep++ {
				tput := 2e6 + float64(p)*1e6 + float64(ep%5)*1e5
				loss := 0.0
				if p == 2 {
					loss = 0.01
				}
				tr.Records = append(tr.Records,
					mkRec(pathName(p), "us", ep, 0.05, 0.06, tput, loss))
			}
			ds.Traces = append(ds.Traces, tr)
		}
	}
	return &ds
}

func pathName(i int) string {
	return string(rune('a'+i)) + "-path"
}

func TestEvalFBCoversAllEpochs(t *testing.T) {
	ds := synthDataset()
	evals := EvalFB(ds, predict.ModelPFTK, SourcePre, 0)
	if len(evals) != ds.Epochs() {
		t.Fatalf("evaluations %d, want %d", len(evals), ds.Epochs())
	}
	lossy := 0
	for _, e := range evals {
		if e.Lossy {
			lossy++
		}
		if math.IsNaN(e.Err) {
			t.Fatal("NaN error")
		}
	}
	if lossy != 60 { // path c: 2 traces × 30 epochs
		t.Errorf("lossy evals %d, want 60", lossy)
	}
}

func TestEvalFBSources(t *testing.T) {
	ds := synthDataset()
	pre := EvalFB(ds, predict.ModelPFTK, SourcePre, 0)
	dur := EvalFB(ds, predict.ModelPFTK, SourceDuring, 0)
	// DurLoss = 3×PreLoss, so lossy predictions from in-flow inputs must
	// be lower (more pessimistic). E is strictly increasing in R̂ for a
	// fixed actual throughput, so the lower prediction has the lower E.
	for i := range pre {
		if pre[i].Lossy && dur[i].Err >= pre[i].Err {
			t.Fatalf("in-flow input should predict less: E %v vs %v", dur[i].Err, pre[i].Err)
		}
	}
}

func TestAllExperimentsProduceOutput(t *testing.T) {
	ds := synthDataset()
	results := All(ds, 2)
	if len(results) < 25 {
		t.Fatalf("only %d experiments", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		if r.ID == "" || r.Title == "" {
			t.Errorf("experiment missing ID/title: %+v", r)
		}
		if seen[r.ID] {
			t.Errorf("duplicate experiment ID %s", r.ID)
		}
		seen[r.ID] = true
		if len(r.Tables) == 0 {
			t.Errorf("%s produced no tables", r.ID)
		}
		for _, tab := range r.Tables {
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("%s: row width %d != %d columns", r.ID, len(row), len(tab.Columns))
				}
			}
		}
	}
	for _, id := range []string{"fig2", "fig8", "fig16", "fig20", "fig23", "summary"} {
		if !seen[id] {
			t.Errorf("experiment %s missing", id)
		}
	}
}

func TestResultFormat(t *testing.T) {
	var sb strings.Builder
	res := Result{
		ID:    "test",
		Title: "A test",
		Notes: []string{"note"},
		Tables: []Table{{
			Title:   "tbl",
			Columns: []string{"a", "b"},
			Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		}},
	}
	res.Format(&sb)
	out := sb.String()
	for _, want := range []string{"== test: A test ==", "note", "tbl", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}
}

func TestFig2SplitsLossyLossless(t *testing.T) {
	res := Fig2(synthDataset())
	tab := res.Tables[0]
	if len(tab.Columns) != 4 { // stat + all/lossy/lossless
		t.Fatalf("columns = %v", tab.Columns)
	}
	// The n row: 180 total, 60 lossy, 120 lossless.
	last := tab.Rows[len(tab.Rows)-1]
	if last[1] != "180" || last[2] != "60" || last[3] != "120" {
		t.Errorf("n row = %v", last)
	}
}

func TestFig11UsesCheckpoints(t *testing.T) {
	ds := synthDataset()
	res := Fig11(ds, []float64{15, 30}, 60)
	tab := res.Tables[0]
	if len(tab.Columns) != 4 { // stat, 15s, 30s, 60s(full)
		t.Fatalf("columns = %v", tab.Columns)
	}
}

func TestFig15Standalone(t *testing.T) {
	res := Fig15()
	if len(res.Tables[0].Rows) < 10 {
		t.Errorf("fig15 has %d predictor rows", len(res.Tables[0].Rows))
	}
}

func TestFig20CorrelationOnSynthetic(t *testing.T) {
	// The synthetic series are deterministic per path; CoV and RMSRE are
	// both small and positively related. Just assert sane output.
	res := Fig20(synthDataset())
	if len(res.Series) == 0 || len(res.Series[0].X) == 0 {
		t.Fatal("fig20 produced no scatter")
	}
	for _, v := range res.Series[0].X {
		if v < 0 || math.IsNaN(v) {
			t.Errorf("bad CoV value %v", v)
		}
	}
}

func TestSummaryHasAllMetrics(t *testing.T) {
	res := SummaryTable(synthDataset())
	if len(res.Tables[0].Rows) < 7 {
		t.Errorf("summary rows = %d", len(res.Tables[0].Rows))
	}
}

func TestHBPerTraceRMSRESmallSeries(t *testing.T) {
	ds := &testbed.Dataset{Traces: []testbed.Trace{{Path: "x", Records: nil}}}
	got := hbPerTraceRMSRE(ds, func() predict.HB { return predict.NewMA(5) })
	if len(got) != 0 {
		t.Errorf("empty trace should be skipped, got %v", got)
	}
}
