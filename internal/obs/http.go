package obs

import (
	"net/http"
	"net/http/pprof"
)

// Endpoint paths served by Handler. IsObsPath recognizes them so a host
// server can route observability traffic around its own middleware
// (load shedding must never shed a scrape).
const (
	PathMetrics   = "/metrics"
	PathTrace     = "/debug/trace"
	PathTraceTree = "/debug/trace.txt"
	PathPprof     = "/debug/pprof/"
)

// IsObsPath reports whether an HTTP path belongs to the observability
// endpoints.
func IsObsPath(path string) bool {
	if path == PathMetrics || path == PathTrace || path == PathTraceTree {
		return true
	}
	return len(path) >= len(PathPprof) && path[:len(PathPprof)] == PathPprof
}

// Handler serves the observability endpoints:
//
//	GET /metrics          Prometheus text exposition of the registry
//	GET /debug/trace      retained spans as Chrome trace_event JSON
//	GET /debug/trace.txt  retained spans as a plain-text tree
//	GET /debug/pprof/...  the standard runtime profiles (heap, profile,
//	                      goroutine, block, mutex, trace, ...)
//
// The two trace endpoints are mounted only when the Obs has a tracer.
//
// pprof handlers are mounted explicitly, not via the net/http/pprof
// side-effect registration, so nothing leaks into http.DefaultServeMux
// and several instrumented servers can coexist in one process.
func (o *Obs) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathMetrics, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.M().WritePrometheus(w)
	})
	if tr := o.T(); tr != nil {
		mux.HandleFunc("GET "+PathTrace, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			tr.WriteChromeTrace(w)
		})
		mux.HandleFunc("GET "+PathTraceTree, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			tr.WriteTree(w)
		})
	}
	mux.HandleFunc(PathPprof, pprof.Index)
	mux.HandleFunc(PathPprof+"cmdline", pprof.Cmdline)
	mux.HandleFunc(PathPprof+"profile", pprof.Profile)
	mux.HandleFunc(PathPprof+"symbol", pprof.Symbol)
	mux.HandleFunc(PathPprof+"trace", pprof.Trace)
	return mux
}
