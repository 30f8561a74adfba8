package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metrics and renders them in the Prometheus text
// exposition format (version 0.0.4). Registration takes a lock and may
// allocate; the record paths (Counter.Add, Gauge.Add, Histogram.Observe)
// are lock-free atomics and perform no heap allocation.
//
// Metric names follow the Prometheus conventions: snake_case, a
// subsystem prefix (sim_, campaign_, predsvc_), unit suffixes (_seconds,
// _bytes) and _total for counters. A name may carry a fixed label set
// inline — `predsvc_requests_total{endpoint="observe"}` — and metrics
// sharing a family (the part before '{') share one HELP/TYPE header.
//
// All methods are nil-receiver-safe: registering on a nil *Registry
// returns a detached, fully functional metric that simply is never
// exported, so instrumented code does not need "is telemetry on?"
// branches.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // family emission order = first registration order
}

type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge", "histogram"
	metrics []metric
}

// metric is anything that can render its sample lines.
type metric interface {
	fullName() string // family name + optional {labels}
	writeSamples(w io.Writer, familyName string) error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// splitName separates `family{labels}` into family and the label block
// (empty when the name carries no labels).
func splitName(name string) (fam, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// register adds m under its family, creating the family on first use,
// and returns the metric now registered under name. Registering a name
// that already exists with the same type returns the existing metric —
// so subsystems wired repeatedly against one registry (two campaigns in
// one repro run, say) share counters instead of fighting over names.
// Registering one family under two types panics: that is a wiring bug
// better caught at startup than rendered as an invalid exposition.
func (r *Registry) register(name, help, typ string, m metric) metric {
	if r == nil {
		return m
	}
	famName, _ := splitName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[famName]
	if !ok {
		f = &family{name: famName, help: help, typ: typ}
		r.families[famName] = f
		r.order = append(r.order, famName)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric family %q registered as both %s and %s", famName, f.typ, typ))
	}
	for _, existing := range f.metrics {
		if existing.fullName() == name {
			return existing
		}
	}
	f.metrics = append(f.metrics, m)
	return m
}

// Counter is a monotonically increasing uint64. The zero value is usable.
type Counter struct {
	v    atomic.Uint64
	name string
}

// Counter registers (or, on a nil registry, detaches) a counter.
// Re-registering an existing counter name returns the shared instance.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, help, "counter", &Counter{name: name})
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as a func-backed metric", name))
	}
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) fullName() string { return c.name }

func (c *Counter) writeSamples(w io.Writer, _ string) error {
	_, err := fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
	return err
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for counts another component already maintains (e.g. the predsvc
// store's tier statistics) that should not be double-counted.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, help, "counter", &funcMetric{name: name, fn: func() float64 { return float64(fn()) }})
}

// Gauge is a float64 that can go up and down. The zero value is usable.
type Gauge struct {
	bits atomic.Uint64
	name string
}

// Gauge registers (or detaches) a gauge. Re-registering an existing
// gauge name returns the shared instance.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, help, "gauge", &Gauge{name: name})
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as a func-backed metric", name))
	}
	return g
}

// Add adds delta (atomic read-modify-write loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) fullName() string { return g.name }

func (g *Gauge) writeSamples(w io.Writer, _ string) error {
	return writeSample(w, g.name, g.Value())
}

// GaugeFunc registers a gauge evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", &funcMetric{name: name, fn: fn})
}

type funcMetric struct {
	name string
	fn   func() float64
}

func (m *funcMetric) fullName() string { return m.name }

func (m *funcMetric) writeSamples(w io.Writer, _ string) error {
	return writeSample(w, m.name, m.fn())
}

// Histogram is a fixed-bucket histogram. Observe is lock-free and
// allocation-free: a linear scan over the (small, immutable) bound slice
// and two atomic adds. Bounds are upper bounds in ascending order; the
// +Inf bucket is implicit.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last = +Inf bucket
	sumBits atomic.Uint64   // float64 bits of the running sum
	name    string
}

// Histogram registers (or detaches) a histogram with the given upper
// bounds (must be ascending and non-empty).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be ascending")
	}
	// Only *Histogram registers under the "histogram" type, so whatever
	// register hands back is one.
	return r.register(name, help, "histogram", &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
		name:   name,
	}).(*Histogram)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot reads the histogram's current state. Buckets are read one by
// one, not under a lock, so a snapshot taken under load is consistent
// per bucket rather than across them.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

func (h *Histogram) fullName() string { return h.name }

func (h *Histogram) writeSamples(w io.Writer, familyName string) error {
	return writeHistogram(w, familyName, h.name, h.Snapshot())
}

// HistogramSnapshot is a point-in-time view of a histogram: per-bucket
// (not cumulative) counts against their ascending upper bounds, the last
// count being the implicit +Inf bucket, and the exact sum of everything
// observed. It is also the one place quantiles and means are estimated
// from bucket counts; a snapshot rebuilt from serialized counts (Sum
// unknown) supports both.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
}

// Total returns the number of observations.
func (s HistogramSnapshot) Total() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// upper returns bucket i's upper bound; the +Inf bucket (and anything
// past it in a malformed snapshot) reports the highest finite bound, the
// convention of Prometheus's histogram_quantile.
func (s HistogramSnapshot) upper(i int) float64 {
	if i >= len(s.Bounds) {
		i = len(s.Bounds) - 1
	}
	if i < 0 {
		return 0
	}
	return s.Bounds[i]
}

// Quantile returns the upper bound of the bucket holding the q-th
// quantile (0 < q ≤ 1), or 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			return s.upper(i)
		}
	}
	return s.upper(len(s.Counts))
}

// WritePrometheus renders every registered metric in the text exposition
// format, families in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	// Snapshot the family list so sample rendering (which may call user
	// GaugeFunc callbacks) runs outside the registry lock.
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, m := range f.metrics {
			if err := m.writeSamples(w, f.name); err != nil {
				return err
			}
		}
	}
	return nil
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeSample(w io.Writer, name string, v float64) error {
	_, err := fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
	return err
}

// withLabel splices `k="v"` into a possibly-labelled metric name:
// f{a="b"} + le=5 → f{a="b",le="5"}.
func withLabel(name, key, val string) string {
	fam, labels := splitName(name)
	if labels == "" {
		return fam + `{` + key + `="` + val + `"}`
	}
	return fam + labels[:len(labels)-1] + `,` + key + `="` + val + `"}`
}

// writeHistogram renders the cumulative _bucket series plus _sum/_count.
// The bucket/sum/count suffixes attach to the family name, with the
// metric's own labels preserved.
func writeHistogram(w io.Writer, familyName, name string, st HistogramSnapshot) error {
	_, labels := splitName(name)
	var cum uint64
	for i, b := range st.Bounds {
		cum += st.Counts[i]
		if _, err := fmt.Fprintf(w, "%s %d\n", withLabel(familyName+"_bucket"+labels, "le", formatValue(b)), cum); err != nil {
			return err
		}
	}
	cum += st.Counts[len(st.Counts)-1]
	if _, err := fmt.Fprintf(w, "%s %d\n", withLabel(familyName+"_bucket"+labels, "le", "+Inf"), cum); err != nil {
		return err
	}
	if err := writeSample(w, familyName+"_sum"+labels, st.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", familyName+"_count"+labels, cum)
	return err
}
