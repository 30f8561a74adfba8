package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// stealMark is the host steal above which a run is marked (never dropped)
// in A/A output: its CPU readings were taken on a contended box.
const stealMark = 0.25

// runAA runs the whole untraced suite n times on one build, repetition r on
// seed+r — another seed per run is what the driver does — and judges, per
// end-to-end metric × workload, whether the run-to-run spread (distance
// between the quartiles as a share of the median, the driver's statistic)
// stays inside the metric's regression bound. Exact counts are compared
// where inputs are identical: between the repetitions inside each run.
func runAA(ctx context.Context, env *environment, n int, seed int64, seconds int) int {
	cells := map[string][]float64{}
	key := func(w, m string) string { return w + "\x00" + m }
	code := 0
	for rep := 0; rep < n; rep++ {
		s := seed + int64(rep)
		for _, w := range env.spec.Workloads {
			res, err := runWorkload(ctx, env, w.Name, s, seconds, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
			mark := ""
			if res.Host.StealFrac > stealMark {
				mark = fmt.Sprintf("  [steal %.0f%% > %.0f%%: contended]", 100*res.Host.StealFrac, 100*stealMark)
			}
			fmt.Fprintf(stdout, "aa rep %d/%d %-18s seed=%d correct=%v steal=%.3f load1=%.2f", rep+1, n, w.Name, s, res.correct(), res.Host.StealFrac, res.Host.Load1)
			for _, m := range env.spec.EndToEnd {
				fmt.Fprintf(stdout, " %s=%.4f", m.Name, res.Values[m.Name].V)
			}
			fmt.Fprintln(stdout, mark)
			if !res.correct() {
				res.print(stdout)
				code = 1
			}
			for _, m := range env.spec.EndToEnd {
				cells[key(w.Name, m.Name)] = append(cells[key(w.Name, m.Name)], res.Values[m.Name].V)
			}
		}
	}
	fmt.Fprintf(stdout, "\n%-18s %-14s %12s %12s %12s %8s %7s %6s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "s/b", "verdict")
	for _, w := range env.spec.Workloads {
		for _, m := range env.spec.EndToEnd {
			values := cells[key(w.Name, m.Name)]
			q1, _, q3 := quartiles(values)
			sp := spread(values)
			verdict := "PASS"
			switch {
			case m.Name == "setup_s":
				verdict = "n/a (spread of set-up time is not gated)"
			case sp > m.Bound:
				verdict = "FAIL"
				code = 1
			case sp > m.Bound/3:
				verdict = "PASS (above a third of the bound)"
			}
			fmt.Fprintf(stdout, "%-18s %-14s %12.4f %12.4f %12.4f %8.4f %7.2f %6.2f  %s\n",
				w.Name, m.Name, q1, median(values), q3, sp, m.Bound, sp/m.Bound, verdict)
		}
	}
	return code
}

// baselineDoc is bench/baseline.json: every metric, both seeds, and the
// machine it was measured on, so the next issue can size its claim from a
// file instead of a guess.
type baselineDoc struct {
	GoVersion string          `json:"go_version"`
	GOARCH    string          `json:"goarch"`
	NumCPU    int             `json:"nproc"`
	Seconds   int             `json:"seconds"`
	Date      string          `json:"date"`
	Runs      []baselineEntry `json:"runs"`
}

// baselineEntry is one workload × seed × pass. An untraced entry is the
// median of baselineRuns runs, because a single run's CPU reading follows
// whatever the host's steal happened to be; the steal of each is recorded.
type baselineEntry struct {
	Workload  string                   `json:"workload"`
	Seed      int64                    `json:"seed"`
	Traced    bool                     `json:"traced"`
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	StealFrac []float64                `json:"host_steal_frac"`
	Load1     []float64                `json:"host_load1"`
	Metrics   map[string]baselineValue `json:"metrics"`
}

type baselineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Runs  int     `json:"runs"` // runs behind the median
}

// baselineRuns is how many untraced runs an end-to-end baseline value is
// the median of. The traced pass is run once: its numbers are not gated.
const baselineRuns = 3

// writeBaseline measures every workload, untraced and traced, on seeds 1
// (default) and 2 (held out) and writes bench/baseline.json.
func writeBaseline(ctx context.Context, env *environment, seconds int) int {
	doc := baselineDoc{GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		Seconds: seconds, Date: time.Now().UTC().Format("2006-01-02")}
	code := 0
	for _, seed := range []int64{1, 2} {
		for _, w := range env.spec.Workloads {
			for _, traced := range []bool{false, true} {
				runs := baselineRuns
				if traced {
					runs = 1
				}
				e := baselineEntry{Workload: w.Name, Seed: seed, Traced: traced, Correct: true, Metrics: map[string]baselineValue{}}
				values := map[string][]float64{}
				var specs []metricSpec
				for r := 0; r < runs; r++ {
					res, err := runWorkload(ctx, env, w.Name, seed, seconds, traced)
					if err != nil {
						fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
						return 1
					}
					res.print(stdout)
					if !res.correct() || len(res.missing()) > 0 {
						code = 1
						e.Correct = false
					}
					e.Attempted, e.Failed = res.Attempted, e.Failed+res.Failed
					e.StealFrac = append(e.StealFrac, res.Host.StealFrac)
					e.Load1 = append(e.Load1, res.Host.Load1)
					specs = res.specs()
					for _, m := range specs {
						values[m.Name] = append(values[m.Name], res.Values[m.Name].V)
					}
				}
				for _, m := range specs {
					e.Metrics[m.Name] = baselineValue{Value: median(values[m.Name]), Unit: m.Unit, Runs: runs}
				}
				doc.Runs = append(doc.Runs, e)
			}
		}
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	path := filepath.Join(env.root, "bench", "baseline.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "bench: wrote %s\n", relPath(env.root, path))
	return code
}
