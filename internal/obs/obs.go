// Package obs is the unified observability layer: a lightweight span
// tracer, a Prometheus-text-exposition metrics registry, and the HTTP
// endpoints (/metrics, /debug/pprof, /debug/trace) that expose both from
// any process in the repository — the batch collectors, a test, or the
// prediction daemon, which keeps metrics only (NewMetrics).
//
// The package has three design rules, in priority order:
//
//  1. Zero dependencies. Only the standard library; the repository's
//     lower layers (sim, netem, predict) may import obs without pulling
//     anything else in.
//
//  2. Free when off. Every instrumentation seam accepts a nil *Obs,
//     *Tracer or *Registry and degrades to (at most) a nil check, so
//     telemetry can stay compiled into the hot paths that PR 4 made
//     allocation-free without costing them anything when disabled.
//
//  3. Allocation-free when on (metrics). Counter.Add, Gauge.Add and
//     Histogram.Observe perform no heap allocation — they are plain
//     atomics — so a scrape-heavy deployment never sees telemetry in an
//     allocation profile. TestMetricsAllocFree pins this down. (Spans DO
//     allocate: they are coarse-grained — campaigns, traces, epochs,
//     engine run segments — never per-event or per-request.)
//
// See DESIGN.md §11 for the span taxonomy and metric naming conventions.
package obs

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// Obs bundles one tracer and one metrics registry — the unit of
// observability a subsystem is wired with. The nil *Obs is fully usable:
// T() and M() return nil, which every method in this package accepts.
type Obs struct {
	tracer  *Tracer
	metrics *Registry
}

// New returns an Obs with a fresh registry and a tracer retaining up to
// spanCapacity completed spans (0 = DefaultSpanCapacity).
func New(spanCapacity int) *Obs {
	return &Obs{tracer: NewTracer(spanCapacity), metrics: NewRegistry()}
}

// NewMetrics returns an Obs with a fresh registry and no tracer: T()
// is nil, and Handler serves no trace endpoints. It is for a process
// whose spans nothing reads, such as the prediction daemon.
func NewMetrics() *Obs {
	return &Obs{metrics: NewRegistry()}
}

// T returns the tracer, or nil on a nil Obs.
func (o *Obs) T() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// M returns the metrics registry, or nil on a nil Obs.
func (o *Obs) M() *Registry {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Serve runs the observability HTTP endpoints on addr until ctx is
// cancelled. It is the backing of the batch tools' -obs-addr flag; the
// daemon mounts Handler on its own server instead.
func (o *Obs) Serve(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: o.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		err := srv.Shutdown(shutdownCtx)
		<-errc
		return err
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// WriteFiles dumps the current telemetry into dir as offline artifacts:
// trace.json (Chrome trace_event format, load in chrome://tracing or
// Perfetto), trace.txt (plain-text span tree) and metrics.prom
// (Prometheus text exposition). CI uploads these from batch runs.
func (o *Obs) WriteFiles(dir string) error {
	if o == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write("trace.json", func(f *os.File) error { return o.T().WriteChromeTrace(f) }); err != nil {
		return err
	}
	if err := write("trace.txt", func(f *os.File) error { return o.T().WriteTree(f) }); err != nil {
		return err
	}
	return write("metrics.prom", func(f *os.File) error { return o.M().WritePrometheus(f) })
}
