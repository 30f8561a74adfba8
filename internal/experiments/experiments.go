// Package experiments reproduces every figure and table of the paper's
// evaluation from a collected testbed dataset. Each FigNN function returns
// a Result whose tables/series correspond to the published plot; cmd/repro
// renders them and EXPERIMENTS.md records the paper-vs-measured
// comparison.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/predict"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// Series is a named list of (x, y) points (CDF curves, scatter plots).
type Series struct {
	Name string
	X, Y []float64
}

// Table is a printable result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Result is one experiment's output.
type Result struct {
	ID     string // e.g. "fig2"
	Title  string
	Notes  []string
	Tables []Table
	Series []Series
}

// Format renders the result as readable text.
func (r Result) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	for _, t := range r.Tables {
		if t.Title != "" {
			fmt.Fprintf(w, "-- %s --\n", t.Title)
		}
		widths := make([]int, len(t.Columns))
		for i, c := range t.Columns {
			widths[i] = len(c)
		}
		for _, row := range t.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		var b strings.Builder
		for i, c := range t.Columns {
			fmt.Fprintf(&b, "%-*s ", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		for _, row := range t.Rows {
			b.Reset()
			for i, cell := range row {
				width := len(cell)
				if i < len(widths) {
					width = widths[i]
				}
				fmt.Fprintf(&b, "%-*s ", width, cell)
			}
			fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		}
	}
	fmt.Fprintln(w)
}

// FBSource selects which measurements feed the FB formula, mirroring the
// paper's comparisons.
type FBSource int

// FB input sources.
const (
	SourcePre      FBSource = iota // T̂, p̂, Â — measured before the flow (Eq. 3)
	SourceDuring                   // T̃, p̃ — periodic probing during the flow (§4.2.3)
	SourceFlow                     // T, p — what the flow itself experienced
	SourceFlowCER                  // T, p′ — flow RTT and congestion-event rate
	SourceSmoothed                 // MA(10)-smoothed T̂, p̂ (§4.2.10)
)

// fbInputs extracts the inputs for a record. For SourceSmoothed the caller
// must provide pre-smoothed values via the history maps.
func fbInputs(rec testbed.EpochRecord, src FBSource) predict.FBInputs {
	switch src {
	case SourceDuring:
		return predict.FBInputs{RTT: rec.DurRTT, LossRate: rec.DurLoss, AvailBw: rec.AvailBw}
	case SourceFlow:
		return predict.FBInputs{RTT: rec.FlowRTT, LossRate: rec.FlowLoss, AvailBw: rec.AvailBw}
	case SourceFlowCER:
		return predict.FBInputs{RTT: rec.FlowRTT, LossRate: rec.FlowEventRate, AvailBw: rec.AvailBw}
	default:
		return predict.FBInputs{RTT: rec.PreRTT, LossRate: rec.PreLoss, AvailBw: rec.AvailBw}
	}
}

// FBEval is one epoch's FB prediction and error.
type FBEval struct {
	Rec   testbed.EpochRecord
	Pred  float64 // R̂, bps
	Err   float64 // E
	Lossy bool    // PFTK branch used (p̂ > 0)
}

// EvalFB runs the FB predictor over every epoch of the dataset.
func EvalFB(ds *testbed.Dataset, model predict.Model, src FBSource, windowBytes int) []FBEval {
	if windowBytes == 0 {
		windowBytes = 1 << 20
	}
	fb := predict.NewFB(predict.FBConfig{Model: model, MaxWindowBytes: windowBytes})
	var out []FBEval
	for _, tr := range ds.Traces {
		for _, rec := range tr.Records {
			in := fbInputs(rec, src)
			pred := fb.Predict(in)
			out = append(out, FBEval{
				Rec:   rec,
				Pred:  pred,
				Err:   stats.RelativeError(pred, rec.Throughput),
				Lossy: in.LossRate > 0,
			})
		}
	}
	return out
}

// EvalFBSmoothed runs FB with MA(n)-smoothed RTT and loss inputs per path
// (paper §4.2.10): the inputs for epoch i are the moving averages of the
// previous n epochs' pre-flow measurements including epoch i's own.
func EvalFBSmoothed(ds *testbed.Dataset, model predict.Model, n int, windowBytes int) []FBEval {
	if windowBytes == 0 {
		windowBytes = 1 << 20
	}
	fb := predict.NewFB(predict.FBConfig{Model: model, MaxWindowBytes: windowBytes})
	var out []FBEval
	for _, tr := range ds.Traces {
		rttMA := predict.NewMA(n)
		lossMA := predict.NewMA(n)
		for _, rec := range tr.Records {
			rttMA.Observe(rec.PreRTT)
			lossMA.Observe(rec.PreLoss)
			rtt, _ := rttMA.Predict()
			loss, _ := lossMA.Predict()
			in := predict.FBInputs{RTT: rtt, LossRate: loss, AvailBw: rec.AvailBw}
			pred := fb.Predict(in)
			out = append(out, FBEval{
				Rec:   rec,
				Pred:  pred,
				Err:   stats.RelativeError(pred, rec.Throughput),
				Lossy: in.LossRate > 0,
			})
		}
	}
	return out
}

// Errors extracts the error values from evaluations.
func Errors(evals []FBEval) []float64 {
	out := make([]float64, len(evals))
	for i, e := range evals {
		out[i] = e.Err
	}
	return out
}

// cdfTable renders the quantiles of several error samples side by side,
// plus the paper's headline exceedance fractions.
func cdfTable(title string, names []string, samples [][]float64) Table {
	qs := []float64{5, 10, 25, 50, 75, 90, 95}
	t := Table{Title: title, Columns: append([]string{"stat"}, names...)}
	for _, q := range qs {
		row := []string{fmt.Sprintf("P%02.0f", q)}
		for _, s := range samples {
			row = append(row, fmt.Sprintf("%.3f", stats.Percentile(s, q)))
		}
		t.Rows = append(t.Rows, row)
	}
	for _, th := range []float64{1, 9} {
		row := []string{fmt.Sprintf("frac |E|>%g", th)}
		for _, s := range samples {
			row = append(row, fmt.Sprintf("%.3f", stats.FractionAbove(s, th)))
		}
		t.Rows = append(t.Rows, row)
	}
	row := []string{"frac E>1 (over)"}
	for _, s := range samples {
		n := 0
		for _, e := range s {
			if e > 1 {
				n++
			}
		}
		row = append(row, fmt.Sprintf("%.3f", safeFrac(n, len(s))))
	}
	t.Rows = append(t.Rows, row)
	row = []string{"frac E<-1 (under)"}
	for _, s := range samples {
		n := 0
		for _, e := range s {
			if e < -1 {
				n++
			}
		}
		row = append(row, fmt.Sprintf("%.3f", safeFrac(n, len(s))))
	}
	t.Rows = append(t.Rows, row)
	row = []string{"n"}
	for _, s := range samples {
		row = append(row, fmt.Sprintf("%d", len(s)))
	}
	t.Rows = append(t.Rows, row)
	return t
}

func safeFrac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func cdfSeries(name string, sample []float64) Series {
	cdf := stats.NewCDF(sample)
	pts := cdf.Points(50)
	s := Series{Name: name}
	for _, p := range pts {
		s.X = append(s.X, p[0])
		s.Y = append(s.Y, p[1])
	}
	return s
}
