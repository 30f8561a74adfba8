package predsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/predsvc/store"
)

// Fault sites the server consults through Config.faults: a failure at
// siteSnapshotWrite fails a WriteSnapshot call; siteHandoffExport and
// siteHandoffImport cut a handoff stream mid-transfer (see handoff.go).
const (
	siteSnapshotWrite = "snapshot.write"
	siteHandoffExport = "handoff.export"
	siteHandoffImport = "handoff.import"
)

// Server wires a Registry and its Metrics behind the HTTP JSON API:
//
//	POST /v1/observe        {"path", "throughput_bps"}            → feed a transfer's achieved throughput
//	POST /v1/measure        {"path", "rtt_s", "loss_rate", "avail_bw_bps"} → install a-priori measurements
//	GET  /v1/predict?path=P                                       → forecasts + accuracy + best predictor
//	POST /v1/observe-batch  {"observations":[...]}                → feed many observations in one request
//	POST /v1/predict-batch  {"paths":[...]}                       → predictions for many paths in one request
//	GET  /v1/stats[?limit=N]                                      → service statistics + the N most recently used paths
//
// Handlers are goroutine-safe; /v1/predict responses are byte-identical
// for a fixed per-path request sequence (see the package comment). The
// batch endpoints amortize connection and HTTP overhead for bulk ingest
// (cluster clients batch per node — see cmd/predload -cluster).
type Server struct {
	cfg     Config
	reg     *Registry
	metrics *Metrics
	mux     *http.ServeMux
	root    http.Handler
	sem     chan struct{} // in-flight request semaphore; nil = no shedding
	start   time.Time

	// Lifecycle state behind /healthz and /readyz. notReady is set while a
	// boot snapshot restores; draining is set by BeginDrain (SIGTERM) and
	// never cleared — a draining server only ever exits.
	notReady atomic.Bool
	draining atomic.Bool
}

// NewServer builds a server with a fresh registry. It panics when
// cfg.SpillDir is set but unusable; daemons that want that error
// surfaced cleanly use Open.
func NewServer(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds a server with a fresh registry honoring cfg.SpillDir. The
// only error source is an unusable spill directory.
func Open(cfg Config) (*Server, error) {
	reg, err := OpenRegistry(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   reg.Config(),
		reg:   reg,
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.registerMetrics(s.cfg.Obs.M())
	// The hot endpoints run on the zero-alloc wire codec (wire.go), the
	// cold ones on encoding/json.
	s.mux.Handle("POST /v1/observe", s.instrument(epObserve, s.handleObserveFast))
	s.mux.Handle("POST /v1/measure", s.instrument(epMeasure, s.handleMeasureFast))
	s.mux.Handle("GET /v1/predict", s.instrument(epPredict, s.handlePredictFast))
	s.mux.Handle("GET /v1/stats", s.instrument(epStats, s.handleStats))
	s.mux.Handle("POST /v1/observe-batch", s.instrument(epObserveBatch, s.handleObserveBatchFast))
	s.mux.Handle("POST /v1/predict-batch", s.instrument(epPredictBatch, s.handlePredictBatchFast))
	s.mux.Handle("POST /v1/sessions/export", s.instrument(epSessionsExport, s.handleSessionsExport))
	s.mux.Handle("POST /v1/sessions/import", s.instrument(epSessionsImport, s.handleSessionsImport))
	s.mux.Handle("POST /v1/sessions/drop", s.instrument(epSessionsDrop, s.handleSessionsDrop))
	if s.cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, s.cfg.MaxInFlight)
	}
	s.root = s.harden()
	// The health probes bypass the hardening middleware like the obs
	// endpoints: a load-shedding or draining server must still answer
	// "are you alive" (yes) and "should I route to you" (no) instantly.
	api := s.root
	s.root = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/healthz":
			writeJSON(w, http.StatusOK, healthResponse{Status: "ok"})
			return
		case "/readyz":
			s.handleReadyz(w)
			return
		}
		api.ServeHTTP(w, req)
	})
	if s.cfg.Obs != nil {
		// The obs endpoints bypass the hardening middleware on purpose:
		// a scrape or a pprof grab must succeed precisely when the
		// service is overloaded enough to shed its own API traffic.
		api, obsHandler := s.root, s.cfg.Obs.Handler()
		s.root = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if obs.IsObsPath(req.URL.Path) {
				obsHandler.ServeHTTP(w, req)
				return
			}
			api.ServeHTTP(w, req)
		})
	}
	return s, nil
}

// harden wraps the mux with the resilience middleware, outermost first:
// semaphore-based load shedding (429 + Retry-After past MaxInFlight
// in-flight requests) and panic recovery (a panicking handler produces a
// 500 and a panics_recovered tick, not a dead daemon). It sets no
// per-request deadline: no handler reads the request context; Serve's
// timeouts and the in-flight cap bound a request.
func (r *Server) harden() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r.sem != nil {
			select {
			case r.sem <- struct{}{}:
				defer func() { <-r.sem }()
			default:
				r.metrics.requestsShed.Add(1)
				w.Header().Set("Retry-After", "1")
				writePre(w, http.StatusTooManyRequests, errBodyOverloaded)
				return
			}
		}
		sw := &shieldWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				r.metrics.panicsRecovered.Add(1)
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "internal panic recovered: %v", p)
				}
			}
		}()
		r.mux.ServeHTTP(sw, req)
	})
}

// shieldWriter tracks whether a handler wrote anything, so the panic
// recovery path only emits its 500 on a virgin response.
type shieldWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *shieldWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *shieldWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming handlers (the
// session-export stream) can push records through the middleware stack.
func (w *shieldWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// healthResponse is the /healthz body.
type healthResponse struct {
	Status string `json:"status"`
}

// readyResponse is the /readyz body.
type readyResponse struct {
	Ready     bool `json:"ready"`
	Draining  bool `json:"draining,omitempty"`
	Restoring bool `json:"restoring,omitempty"`
}

func (r *Server) handleReadyz(w http.ResponseWriter) {
	resp := readyResponse{
		Draining:  r.draining.Load(),
		Restoring: r.notReady.Load(),
	}
	resp.Ready = !resp.Draining && !resp.Restoring
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// BeginDrain flips the server to draining: /readyz answers 503 so
// cluster clients stop routing here, while every other endpoint keeps
// serving until Serve's shutdown closes the listener. Draining is
// one-way — a draining server only ever exits. Safe to call more than
// once.
func (r *Server) BeginDrain() { r.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (r *Server) Draining() bool { return r.draining.Load() }

// Ready reports whether the server is accepting routed traffic: not
// draining and not restoring a boot snapshot.
func (r *Server) Ready() bool { return !r.draining.Load() && !r.notReady.Load() }

// Registry exposes the underlying path registry.
func (r *Server) Registry() *Registry { return r.reg }

// Close releases the registry's disk resources (a no-op on the in-memory
// store). Call after Serve has returned and the final snapshot is
// written; the server must not be used after.
func (r *Server) Close() error { return r.reg.Close() }

// Metrics exposes the server's counters.
func (r *Server) Metrics() *Metrics { return r.metrics }

// Handler returns the HTTP handler serving the API, wrapped in the
// hardening middleware (load shedding, panic recovery, request deadlines).
func (r *Server) Handler() http.Handler { return r.root }

// readTimeout bounds reading one full request; idleTimeout bounds how long
// a keep-alive connection may sit idle.
const (
	readTimeout = time.Minute
	idleTimeout = 2 * time.Minute
)

// Serve accepts connections on ln until ctx is cancelled, then shuts the
// HTTP server down gracefully (in-flight requests get up to 5 s), mirroring
// the context discipline of internal/campaign: cancellation is the normal
// way to stop, and a clean shutdown returns nil. The http.Server carries
// the configured read-header timeout (slowloris guard) and fixed read and
// idle timeouts.
func (r *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           r.root,
		ReadHeaderTimeout: posDur(r.cfg.ReadHeaderTimeout),
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		// Drain first: /readyz flips to 503 while the listener still
		// accepts, so a cluster client probing readiness reroutes or backs
		// off before connections start closing. DrainDelay gives it a probe
		// cycle to notice.
		r.BeginDrain()
		if d := posDur(r.cfg.DrainDelay); d > 0 {
			time.Sleep(d)
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(shutdownCtx)
		<-errc // always http.ErrServerClosed after Shutdown
		return err
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// SnapshotLoop writes a registry snapshot to path every interval until ctx
// is cancelled, then returns nil without a final write. Serve keeps
// draining in-flight requests after ctx is cancelled, so callers that want
// a shutdown snapshot covering that traffic must call WriteSnapshot once
// Serve has returned (cmd/predserverd does). A failed write is retried
// with capped exponential backoff (WriteSnapshotRetry); a cycle that
// exhausts its retries gives up until the next tick — one bad write, or
// even a stretch of them, never permanently disables periodic snapshots.
func (r *Server) SnapshotLoop(ctx context.Context, path string, interval time.Duration) error {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
			r.WriteSnapshotRetry(ctx, path)
		}
	}
}

// snapshotRetries is how many backoff retries one snapshot cycle attempts
// before giving up until the next tick.
const snapshotRetries = 8

// WriteSnapshotRetry writes a snapshot, retrying failures up to
// snapshotRetries times with exponential backoff between
// snapshotRetryMin and snapshotRetryMax plus up to 50% jitter (so many
// daemons recovering from a shared-disk hiccup do not retry in lockstep).
// Each failed attempt ticks snapshot_failures, each backoff sleep ticks
// snapshot_retries. The last error is returned if every attempt failed;
// ctx cancellation aborts the backoff.
func (r *Server) WriteSnapshotRetry(ctx context.Context, path string) error {
	backoff := r.cfg.snapshotRetryMin
	var err error
	for attempt := 0; attempt <= snapshotRetries; attempt++ {
		if attempt > 0 {
			r.metrics.snapshotRetries.Add(1)
			sleep := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(sleep):
			}
			if backoff *= 2; backoff > r.cfg.snapshotRetryMax {
				backoff = r.cfg.snapshotRetryMax
			}
		}
		if err = r.WriteSnapshot(path); err == nil {
			return nil
		}
		r.metrics.snapshotFailures.Add(1)
	}
	return err
}

// WriteSnapshot atomically persists the registry to path as a record
// stream (Registry.WriteSnapshot), streamed to a temp file one record at a
// time.
func (r *Server) WriteSnapshot(path string) error {
	if err := r.cfg.fault(siteSnapshotWrite); err != nil {
		return fmt.Errorf("predsvc: snapshot write: %w", err)
	}
	if err := writeFileAtomic(path, r.reg.WriteSnapshot); err != nil {
		return err
	}
	r.metrics.snapshotsWritten.Add(1)
	return nil
}

// RestoreStats reports what RestoreSnapshot did at boot.
type RestoreStats struct {
	// Paths restored into the registry.
	Paths int
	// Quarantined is the "<path>.corrupt-<n>" name a corrupt snapshot was
	// moved to, or empty when the snapshot was missing or healthy.
	Quarantined string
	// Reason is the corruption that triggered the quarantine.
	Reason error
}

// RestoreSnapshot loads a snapshot file into the registry. A missing file
// is not an error. A corrupt file (bad framing or checksum, another format
// or version, state the zoo refuses) is quarantined to
// "<path>.corrupt-<n>" and reported in the returned stats — the daemon
// boots with an empty registry instead of dying on state it can regrow
// from live traffic. Only real I/O failures (unreadable file, failed
// quarantine rename) return an error.
func (r *Server) RestoreSnapshot(path string) (RestoreStats, error) {
	r.notReady.Store(true)
	defer r.notReady.Store(false)
	var st RestoreStats
	f, err := os.Open(path)
	if err == nil {
		st.Paths, err = r.reg.ReadSnapshot(f)
		f.Close()
		if err != nil {
			err = fmt.Errorf("%s: %w", path, err)
		}
	}
	switch {
	case err == nil, errors.Is(err, fs.ErrNotExist):
		return st, nil
	case errors.Is(err, ErrCorruptSnapshot):
		q, qerr := Quarantine(path)
		if qerr != nil {
			return st, errors.Join(err, qerr)
		}
		st.Quarantined, st.Reason = q, err
		return st, nil
	default:
		return st, err
	}
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

// handlerFunc processes one request and returns the HTTP status written.
type handlerFunc func(w http.ResponseWriter, req *http.Request) int

// instrument wraps a handler with request/error/latency accounting.
func (r *Server) instrument(ep endpoint, h handlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		status := h(w, req)
		r.metrics.record(ep, status, time.Since(start))
	})
}

// jsonContentType is every JSON reply's Content-Type, shared: net/http
// clones the handler header at WriteHeader, so the slice is never written.
var jsonContentType = []string{"application/json"}

func setJSON(w http.ResponseWriter) { w.Header()["Content-Type"] = jsonContentType }

func writeJSON(w http.ResponseWriter, status int, v any) int {
	data, err := json.Marshal(v)
	if err != nil {
		return writeEncodingFailure(w)
	}
	return writeWire(w, status, data)
}

// writeEncodingFailure is the shared 500 for values json cannot encode
// (NaN/Inf forecasts); the fastpath and writeJSON both land here so the
// two produce identical failure responses.
func writeEncodingFailure(w http.ResponseWriter) int {
	http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
	return http.StatusInternalServerError
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) int {
	if len(args) == 0 {
		// Most error messages are constants; skip the Sprintf pass (which
		// allocates even with no verbs to expand).
		return writeJSON(w, status, apiError{Error: format})
	}
	return writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// Preformatted bodies (marshaled apiError plus the trailing newline, so
// the wire bytes match writeError exactly) for the rejections hot enough
// that load shedding and input validation must not allocate.
var (
	errBodyOverloaded     = preformatError("overloaded: in-flight request cap reached, retry")
	errBodyMissingPath    = preformatError("missing path")
	errBodyMissingPathQ   = preformatError("missing path query parameter")
	errBodyBadThroughput  = preformatError("throughput_bps must be finite and positive")
	errBodyBadMeasurement = preformatError("measurements must be finite and in range")
)

func preformatError(msg string) []byte {
	data, err := json.Marshal(apiError{Error: msg})
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}

// writePre writes a preformatted JSON body (which already carries its
// trailing newline) without any per-request allocation.
func writePre(w http.ResponseWriter, status int, body []byte) int {
	setJSON(w)
	w.WriteHeader(status)
	w.Write(body)
	return status
}

// maxBodyBytes bounds request bodies; observations are tiny.
const maxBodyBytes = 1 << 20

func decodeBody(w http.ResponseWriter, req *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	return dec.Decode(v)
}

// ObserveRequest feeds one transfer's achieved throughput on a path.
type ObserveRequest struct {
	Path          string  `json:"path"`
	ThroughputBps float64 `json:"throughput_bps"`
}

// MeasureRequest installs fresh a-priori measurements for a path.
type MeasureRequest struct {
	Path       string  `json:"path"`
	RTTSeconds float64 `json:"rtt_s"`
	LossRate   float64 `json:"loss_rate"`
	AvailBwBps float64 `json:"avail_bw_bps"`
}

// DefaultStatsLimit is how many recent paths /v1/stats lists when the
// request carries no ?limit=N — a bound, not a sample: with a large
// registry an unbounded listing would marshal every path.
const DefaultStatsLimit = 100

// PathActivity is one hot path's row in the stats listing.
type PathActivity struct {
	Path         string `json:"path"`
	Observations uint64 `json:"observations"`
}

// StatsResponse is the service-wide statistics payload. RecentPaths
// lists at most the requested limit of hot-tier paths, most recently
// used first; Truncated reports that more paths exist than were listed
// (beyond the limit, or resident only in the cold tier).
type StatsResponse struct {
	UptimeSeconds float64         `json:"uptime_s"`
	Ready         bool            `json:"ready"`
	Draining      bool            `json:"draining"`
	Paths         int             `json:"paths"`
	Capacity      int             `json:"capacity"`
	Shards        int             `json:"shards"`
	Evictions     uint64          `json:"evictions"`
	Goroutines    int             `json:"goroutines"`
	Store         store.TierStats `json:"store"`
	RecentPaths   []PathActivity  `json:"recent_paths"`
	Truncated     bool            `json:"truncated"`
	Metrics       MetricsSnapshot `json:"metrics"`
}

func (r *Server) handleStats(w http.ResponseWriter, req *http.Request) int {
	limit := DefaultStatsLimit
	if s := req.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return writeError(w, http.StatusBadRequest, "limit must be a non-negative integer")
		}
		limit = n
	}
	recent := r.reg.Recent(limit)
	listed := make([]PathActivity, len(recent))
	for i, sess := range recent {
		listed[i] = PathActivity{Path: sess.Path(), Observations: sess.Observations()}
	}
	total := r.reg.Len()
	return writeJSON(w, http.StatusOK, StatsResponse{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Ready:         r.Ready(),
		Draining:      r.Draining(),
		Paths:         total,
		Capacity:      r.reg.Capacity(),
		Shards:        r.reg.Shards(),
		Evictions:     r.reg.Evictions(),
		Goroutines:    runtime.NumGoroutine(),
		Store:         r.reg.TierStats(),
		RecentPaths:   listed,
		Truncated:     len(listed) < total,
		Metrics:       r.metrics.Snapshot(),
	})
}

// maxBatchItems bounds one batch request's item count; past it the whole
// request is rejected rather than partially applied.
const maxBatchItems = 4096

// ObserveBatchRequest feeds many observations in one request. Items are
// applied in order; invalid items are counted and skipped, never aborting
// the rest of the batch.
type ObserveBatchRequest struct {
	Observations []ObserveRequest `json:"observations"`
}

// ObserveBatchResponse reports how the batch fared.
type ObserveBatchResponse struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

// PredictBatchRequest asks for predictions on many paths in one request.
type PredictBatchRequest struct {
	Paths []string `json:"paths"`
}
