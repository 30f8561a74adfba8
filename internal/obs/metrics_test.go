package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestMetricsAllocFree is the acceptance gate for the record paths: a
// counter add, a gauge set/add and a histogram observe must not allocate,
// so telemetry compiled into the PR-4 hot paths cannot reintroduce the
// allocations those paths were stripped of.
func TestMetricsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_depth", "depth")
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.001, 0.01, 0.1, 1})

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(3) }},
		{"Counter.Inc", func() { c.Inc() }},
		{"Gauge.Add", func() { g.Add(-1.5) }},
		{"Histogram.Observe", func() { h.Observe(0.0042) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func TestDetachedMetricsOnNilRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	c.Add(7)
	if c.Value() != 7 {
		t.Errorf("detached counter = %d, want 7", c.Value())
	}
	g := r.Gauge("x", "")
	g.Add(1.5)
	g.Add(1)
	if g.Value() != 2.5 {
		t.Errorf("detached gauge = %v, want 2.5", g.Value())
	}
	h := r.Histogram("x_seconds", "", []float64{1})
	h.Observe(0.5)
	if n := h.Snapshot().Total(); n != 1 {
		t.Errorf("detached histogram count = %d, want 1", n)
	}
	r.GaugeFunc("y", "", func() float64 { return 0 })
	r.CounterFunc("y_total", "", func() uint64 { return 0 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry wrote %q, err %v", buf.String(), err)
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(`req_total{endpoint="observe"}`, "requests served").Add(10)
	r.Counter(`req_total{endpoint="predict"}`, "requests served").Add(4)
	r.Gauge("paths", "registered paths").Add(3)
	r.GaugeFunc("uptime_seconds", "uptime", func() float64 { return 12.25 })
	h := r.Histogram(`lat_seconds{endpoint="observe"}`, "latency", []float64{0.001, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# HELP req_total requests served\n",
		"# TYPE req_total counter\n",
		`req_total{endpoint="observe"} 10` + "\n",
		`req_total{endpoint="predict"} 4` + "\n",
		"# TYPE paths gauge\n",
		"paths 3\n",
		"uptime_seconds 12.25\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{endpoint="observe",le="0.001"} 1` + "\n",
		`lat_seconds_bucket{endpoint="observe",le="0.1"} 2` + "\n",
		`lat_seconds_bucket{endpoint="observe",le="+Inf"} 3` + "\n",
		`lat_seconds_count{endpoint="observe"} 3` + "\n",
		`lat_seconds_sum{endpoint="observe"} 5.0505` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// One HELP/TYPE per family, even with two labelled children.
	if n := strings.Count(out, "# TYPE req_total"); n != 1 {
		t.Errorf("req_total TYPE emitted %d times, want 1", n)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Errorf("own exposition fails validation: %v\n---\n%s", err, out)
	}
}

func TestExpositionSpecialValues(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("inf", "", func() float64 { return math.Inf(1) })
	r.GaugeFunc("nan", "", func() float64 { return math.NaN() })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "inf +Inf\n") || !strings.Contains(buf.String(), "nan NaN\n") {
		t.Errorf("special values rendered wrong:\n%s", buf.String())
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Errorf("special values rejected: %v", err)
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("a_total", "")
	mustPanic("type clash", func() { r.Gauge("a_total", "") })
	r.GaugeFunc("g", "", func() float64 { return 0 })
	mustPanic("func/direct clash", func() { r.Gauge("g", "") })
	mustPanic("empty buckets", func() { r.Histogram("h", "", nil) })
	mustPanic("unsorted buckets", func() { r.Histogram("h2", "", []float64{2, 1}) })
}

// TestRegistrySharedOnReRegister pins the idempotent-wiring contract:
// registering the same name and type twice yields one shared metric and
// one exposition series.
func TestRegistrySharedOnReRegister(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("shared_total", "")
	b := r.Counter("shared_total", "")
	if a != b {
		t.Error("re-registered counter is a different instance")
	}
	a.Add(2)
	b.Add(3)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "shared_total 5"); got != 1 {
		t.Errorf("shared counter series:\n%s", buf.String())
	}
	h1 := r.Histogram("shared_seconds", "", []float64{1})
	h2 := r.Histogram("shared_seconds", "", []float64{1})
	if h1 != h2 {
		t.Error("re-registered histogram is a different instance")
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	bad := []struct {
		name, in string
	}{
		{"garbage line", "!!!\n"},
		{"bad name", "9metric 1\n"},
		{"bad value", "m xyz\n"},
		{"bad label name", `m{9x="v"} 1` + "\n"},
		{"unterminated labels", `m{x="v 1` + "\n"},
		{"duplicate series", "m 1\nm 2\n"},
		{"duplicate TYPE", "# TYPE m counter\n# TYPE m counter\nm 1\n"},
		{"unknown TYPE", "# TYPE m zigzag\nm 1\n"},
		{"type after samples", "m_total 1\n# TYPE m_total counter\n"},
		{"non-cumulative buckets", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\n"},
		{"missing +Inf", "# TYPE h histogram\n" + `h_bucket{le="1"} 5` + "\n"},
	}
	for _, tc := range bad {
		if err := ValidateExposition([]byte(tc.in)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.in)
		}
	}
	if err := ValidateExposition([]byte("")); err != nil {
		t.Errorf("empty exposition rejected: %v", err)
	}
}

// TestHistogramQuantileMean pins the one quantile estimator, bucket upper
// bounds with the +Inf bucket at the highest finite bound, over live
// histograms and over snapshots rebuilt from bare counts, and the exact
// sum the mean is read from.
func TestHistogramQuantileMean(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	for _, tc := range []struct {
		name     string
		observe  []float64
		total    uint64
		p50, p99 float64
	}{
		{name: "empty"},
		{name: "single sample", observe: []float64{3}, total: 1, p50: 4, p99: 4},
		{name: "on a bound counts as le", observe: []float64{2}, total: 1, p50: 2, p99: 2},
		{name: "first bucket spans zero", observe: []float64{0.2, 0.4}, total: 2, p50: 1, p99: 1},
		{name: "spread", observe: []float64{0.5, 1.5, 1.5, 3, 7}, total: 5, p50: 2, p99: 4},
		{name: "overflow bucket", observe: []float64{100, 200}, total: 2, p50: 8, p99: 8},
		{name: "tail in overflow", observe: []float64{0.5, 0.5, 0.5, 50}, total: 4, p50: 1, p99: 1},
	} {
		var detached *Registry
		h := detached.Histogram("h", "", bounds)
		var sum float64
		for _, v := range tc.observe {
			h.Observe(v)
			sum += v
		}
		s := h.Snapshot()
		if s.Total() != tc.total || s.Sum != sum {
			t.Errorf("%s: total %d sum %v, want %d / %v", tc.name, s.Total(), s.Sum, tc.total, sum)
		}
		if got := s.Quantile(0.5); got != tc.p50 {
			t.Errorf("%s: p50 = %v, want %v", tc.name, got, tc.p50)
		}
		if got := s.Quantile(0.99); got != tc.p99 {
			t.Errorf("%s: p99 = %v, want %v", tc.name, got, tc.p99)
		}
		// The same answers from serialized counts alone (no Sum).
		bare := HistogramSnapshot{Bounds: bounds, Counts: s.Counts}
		if bare.Quantile(0.5) != tc.p50 {
			t.Errorf("%s: bare-counts snapshot disagrees: p50 %v", tc.name, bare.Quantile(0.5))
		}
	}

	// Counts that do not match the bounds (a foreign or truncated JSON
	// document) must not panic: extra buckets fold into the overflow.
	long := HistogramSnapshot{Bounds: bounds, Counts: []uint64{0, 0, 0, 0, 0, 0, 3}}
	if long.Quantile(0.5) != 8 {
		t.Errorf("over-long counts: p50 %v, want 8", long.Quantile(0.5))
	}
	short := HistogramSnapshot{Bounds: bounds, Counts: []uint64{2}}
	if short.Quantile(0.5) != 1 {
		t.Errorf("short counts: p50 %v, want 1", short.Quantile(0.5))
	}
	if q := (HistogramSnapshot{Counts: []uint64{1}}).Quantile(0.5); q != 0 {
		t.Errorf("no bounds: p50 %v, want 0", q)
	}
}
