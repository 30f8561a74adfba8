package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// value is one reported number: what was measured, over how many samples.
type value struct {
	V float64
	N int // samples behind V (1 for a single reading or an exact count)
}

// result is the outcome of one run of one workload.
type result struct {
	spec      *benchSpec // the contract this run must fill
	Workload  string
	Seed      int64
	Seconds   int
	Traced    bool
	Attempted int64
	Failed    int64
	Checks    []check // correctness checks, all must pass
	Values    map[string]value
	Notes     []string // human-readable context, printed before the metrics
	Host      hostReading
}

// check is one named correctness verdict.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// hostReading is the contention the run itself saw.
type hostReading struct {
	StealFrac float64
	Load1     float64
}

func newResult(spec *benchSpec, workload string, seed int64, seconds int, traced bool) *result {
	return &result{spec: spec, Workload: workload, Seed: seed, Seconds: seconds, Traced: traced, Values: map[string]value{}}
}

func (r *result) set(name string, v float64, n int) { r.Values[name] = value{V: v, N: n} }

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// correct reports whether every check passed and no operation failed.
func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0 && r.Attempted > 0
}

// specs returns the metric table this result must fill: end-to-end for an
// untraced run, per-layer for a traced one.
func (r *result) specs() []metricSpec {
	if r.Traced {
		return r.spec.PerLayer
	}
	return r.spec.EndToEnd
}

// missing lists contract metrics the run failed to produce.
func (r *result) missing() []string {
	var out []string
	for _, m := range r.specs() {
		if _, ok := r.Values[m.Name]; !ok {
			out = append(out, m.Name)
		}
	}
	return out
}

// print writes the human-readable report: notes, checks, then every metric
// by name with unit, sample count and (end-to-end) regression bound.
func (r *result) print(w io.Writer) {
	mode := "untraced (end-to-end metrics)"
	if r.Traced {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%d  %s\n", r.Workload, r.Seed, r.Seconds, mode)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "   check %s %-28s %s\n", verdict, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "   ops attempted=%d failed=%d  host steal=%.3f load1=%.2f\n",
		r.Attempted, r.Failed, r.Host.StealFrac, r.Host.Load1)
	for _, m := range r.specs() {
		v, ok := r.Values[m.Name]
		if !ok {
			fmt.Fprintf(w, "   %-44s MISSING\n", m.Name)
			continue
		}
		line := fmt.Sprintf("   %-44s %14s %-6s n=%-6d %s", m.Name, formatValue(v.V), m.Unit, v.N, m.Better)
		if m.Bound > 0 {
			line += fmt.Sprintf("  bound=%.2f", m.Bound)
		}
		fmt.Fprintln(w, line)
	}
}

// formatValue prints a measurement with all its digits but without the
// noise of exponent notation for ordinary magnitudes.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// contractLine renders the single JSON object the driver reads from the
// last line of stdout.
func (r *result) contractLine() []byte {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, m := range r.specs() {
		doc.Metrics[m.Name] = mv{Value: r.Values[m.Name].V, Unit: m.Unit}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return out
}
