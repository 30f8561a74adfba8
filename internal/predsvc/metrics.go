package predsvc

import (
	"math"
	"time"

	"repro/internal/obs"
)

// endpoint indexes the served HTTP endpoints for metrics.
type endpoint int

const (
	epObserve endpoint = iota
	epMeasure
	epPredict
	epStats
	epObserveBatch
	epPredictBatch
	epSessionsExport
	epSessionsImport
	epSessionsDrop
	epCount
)

var endpointNames = [epCount]string{"observe", "measure", "predict", "stats", "observe_batch", "predict_batch", "sessions_export", "sessions_import", "sessions_drop"}

// latencyBounds are the request-latency bucket bounds in seconds: 2^i µs
// for i = 0..22, plus the implicit +Inf bucket (~4.2 s and beyond).
var latencyBounds = func() []float64 {
	bounds := make([]float64, 23)
	for i := range bounds {
		bounds[i] = float64(uint64(1)<<uint(i)) * 1e-6
	}
	return bounds
}()

// Metrics is the service's instruments: handles into the obs registry the
// server was opened with (detached but fully working when it was opened
// without one), incremented directly on the request path. registerMetrics
// creates them; /metrics and the /v1/stats JSON both read these same
// values.
type Metrics struct {
	requests [epCount]*obs.Counter
	errors   [epCount]*obs.Counter
	latency  [epCount]*obs.Histogram

	observations     *obs.Counter
	predictions      *obs.Counter
	snapshotsWritten *obs.Counter

	// Resilience counters: handler panics converted to 500s, requests
	// shed with 429, invalid (NaN/Inf/negative) inputs rejected with 400,
	// snapshot write failures and backoff retries, and predict responses
	// whose FB forecast was flagged stale.
	panicsRecovered  *obs.Counter
	requestsShed     *obs.Counter
	rejectedInputs   *obs.Counter
	snapshotRetries  *obs.Counter
	snapshotFailures *obs.Counter
	stalePredictions *obs.Counter

	// Handoff counters: sessions streamed out by /v1/sessions/export,
	// applied by /v1/sessions/import, skipped by import's last-writer-wins
	// check (the resident session had at least as many observations — the
	// idempotent-retry path), and deleted by /v1/sessions/drop.
	handoffExported *obs.Counter
	handoffImported *obs.Counter
	handoffSkipped  *obs.Counter
	handoffDropped  *obs.Counter

	// Tournament selection counters: how many predict responses each
	// family won, parallel to familyNames (every session runs the same
	// zoo).
	familyNames      []string
	familySelections []*obs.Counter
}

// recordSelection ticks the winning family's selection counter.
func (m *Metrics) recordSelection(name string) {
	for i, n := range m.familyNames {
		if n == name {
			m.familySelections[i].Inc()
			return
		}
	}
}

// SelectionCounts returns the per-family selection counters.
func (m *Metrics) SelectionCounts() map[string]uint64 {
	out := make(map[string]uint64, len(m.familyNames))
	for i, n := range m.familyNames {
		out[n] = m.familySelections[i].Value()
	}
	return out
}

func (m *Metrics) record(ep endpoint, status int, d time.Duration) {
	m.requests[ep].Inc()
	if status >= 400 {
		m.errors[ep].Inc()
	}
	m.latency[ep].Observe(d.Seconds())
}

// LatencySnapshot is the JSON form of a latency histogram: per-bucket
// counts (bucket i = latency ≤ 2^i µs, the last the overflow) plus
// quantile upper bounds in microseconds.
type LatencySnapshot struct {
	Counts  []uint64 `json:"counts"`
	Total   uint64   `json:"total"`
	P50Usec uint64   `json:"p50_us"`
	P95Usec uint64   `json:"p95_us"`
	P99Usec uint64   `json:"p99_us"`
}

func usec(seconds float64) uint64 { return uint64(math.Round(seconds * 1e6)) }

func latencySnapshot(h *obs.Histogram) LatencySnapshot {
	s := h.Snapshot()
	return LatencySnapshot{
		Counts:  s.Counts,
		Total:   s.Total(),
		P50Usec: usec(s.Quantile(0.50)),
		P95Usec: usec(s.Quantile(0.95)),
		P99Usec: usec(s.Quantile(0.99)),
	}
}

// EndpointSnapshot is one endpoint's counters.
type EndpointSnapshot struct {
	Name     string          `json:"name"`
	Requests uint64          `json:"requests"`
	Errors   uint64          `json:"errors"`
	Latency  LatencySnapshot `json:"latency"`
}

// MetricsSnapshot is the JSON view served by /v1/stats.
type MetricsSnapshot struct {
	Observations     uint64             `json:"observations"`
	Predictions      uint64             `json:"predictions"`
	SnapshotsWritten uint64             `json:"snapshots_written"`
	PanicsRecovered  uint64             `json:"panics_recovered"`
	RequestsShed     uint64             `json:"requests_shed"`
	RejectedInputs   uint64             `json:"rejected_inputs"`
	SnapshotRetries  uint64             `json:"snapshot_retries"`
	SnapshotFailures uint64             `json:"snapshot_failures"`
	StalePredictions uint64             `json:"stale_predictions"`
	HandoffExported  uint64             `json:"handoff_exported"`
	HandoffImported  uint64             `json:"handoff_imported"`
	HandoffSkipped   uint64             `json:"handoff_skipped"`
	HandoffDropped   uint64             `json:"handoff_dropped"`
	FamilySelections map[string]uint64  `json:"family_selections,omitempty"`
	Endpoints        []EndpointSnapshot `json:"endpoints"`
}

// Snapshot captures the current counter values (each read individually,
// not under a global lock).
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Observations:     m.observations.Value(),
		Predictions:      m.predictions.Value(),
		SnapshotsWritten: m.snapshotsWritten.Value(),
		PanicsRecovered:  m.panicsRecovered.Value(),
		RequestsShed:     m.requestsShed.Value(),
		RejectedInputs:   m.rejectedInputs.Value(),
		SnapshotRetries:  m.snapshotRetries.Value(),
		SnapshotFailures: m.snapshotFailures.Value(),
		StalePredictions: m.stalePredictions.Value(),
		HandoffExported:  m.handoffExported.Value(),
		HandoffImported:  m.handoffImported.Value(),
		HandoffSkipped:   m.handoffSkipped.Value(),
		HandoffDropped:   m.handoffDropped.Value(),
		FamilySelections: m.SelectionCounts(),
	}
	for ep := endpoint(0); ep < epCount; ep++ {
		s.Endpoints = append(s.Endpoints, EndpointSnapshot{
			Name:     endpointNames[ep],
			Requests: m.requests[ep].Value(),
			Errors:   m.errors[ep].Value(),
			Latency:  latencySnapshot(m.latency[ep]),
		})
	}
	return s
}
