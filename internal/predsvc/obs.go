package predsvc

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/predict"
)

// registerMetrics creates the server's instruments in m — the one place
// service counters live — and registers the scrape-time gauges beside
// them. A nil m (a server opened without Config.Obs) yields detached instruments
// that count all the same, so /v1/stats and the request path never ask
// whether telemetry is on.
//
// The catalogue:
//
//	predsvc_requests_total{endpoint=E}            requests served, per endpoint
//	predsvc_errors_total{endpoint=E}              4xx/5xx responses, per endpoint
//	predsvc_request_duration_seconds{endpoint=E}  latency histogram (2^i µs buckets, exact _sum)
//	predsvc_observations_total …                  the business + resilience counters
//	predsvc_paths, predsvc_path_capacity          registry occupancy
//	predsvc_evictions_total                       hot-tier LRU evictions
//	predsvc_store_hot_paths, …_cold_paths         storage-tier occupancy
//	predsvc_store_spills_total, …_faults_total    disk-tier traffic (see store.TierStats)
//	predsvc_uptime_seconds                        since NewServer
//	predsvc_rmsre{predictor=F}                    mean rolling RMSRE (Eq. 5) across paths, per family
//	predsvc_regret{family=F}                      mean rolling regret vs best-in-hindsight, per family
//	predsvc_family_selected_total{family=F}       predict responses each family won
//	predsvc_interval_coverage                     fraction of observations inside [p10,p90]
//	predsvc_lso_shifts, predsvc_lso_outliers      LSO detections summed over live sessions
//	predsvc_ready, predsvc_draining               lifecycle gauges behind /readyz
//	predsvc_handoff_*_total                       shard-handoff traffic (export/import/skip/drop)
func (r *Server) registerMetrics(m *obs.Registry) {
	// Every session runs the same zoo, so one ensemble supplies the
	// family names the per-family metrics are keyed by.
	families := predict.NewEnsemble().Names()
	mt := &Metrics{familyNames: families}
	r.metrics = mt
	for ep := endpoint(0); ep < epCount; ep++ {
		label := fmt.Sprintf("{endpoint=%q}", endpointNames[ep])
		mt.requests[ep] = m.Counter("predsvc_requests_total"+label, "requests served")
		mt.errors[ep] = m.Counter("predsvc_errors_total"+label, "requests answered with a 4xx/5xx status")
		mt.latency[ep] = m.Histogram("predsvc_request_duration_seconds"+label, "request latency", latencyBounds)
	}

	for _, c := range []struct {
		dst        **obs.Counter
		name, help string
	}{
		{&mt.observations, "predsvc_observations_total", "throughput observations absorbed"},
		{&mt.predictions, "predsvc_predictions_total", "predict responses served"},
		{&mt.snapshotsWritten, "predsvc_snapshots_written_total", "registry snapshots persisted"},
		{&mt.panicsRecovered, "predsvc_panics_recovered_total", "handler panics converted to 500s"},
		{&mt.requestsShed, "predsvc_requests_shed_total", "requests shed with 429 past the in-flight cap"},
		{&mt.rejectedInputs, "predsvc_rejected_inputs_total", "observations/measurements rejected as invalid"},
		{&mt.snapshotRetries, "predsvc_snapshot_retries_total", "snapshot write backoff retries"},
		{&mt.snapshotFailures, "predsvc_snapshot_failures_total", "failed snapshot write attempts"},
		{&mt.stalePredictions, "predsvc_stale_predictions_total", "predict responses whose FB forecast was stale"},
		{&mt.handoffExported, "predsvc_handoff_exported_total", "sessions streamed out by /v1/sessions/export"},
		{&mt.handoffImported, "predsvc_handoff_imported_total", "sessions applied by /v1/sessions/import"},
		{&mt.handoffSkipped, "predsvc_handoff_skipped_total", "import records skipped by last-writer-wins"},
		{&mt.handoffDropped, "predsvc_handoff_dropped_total", "sessions deleted by /v1/sessions/drop after handoff"},
	} {
		*c.dst = m.Counter(c.name, c.help)
	}

	// Lifecycle: what /readyz answers, as scrapeable gauges — a rolling
	// restart shows up as predsvc_ready dropping to 0 with
	// predsvc_draining at 1 while in-flight requests finish.
	m.GaugeFunc("predsvc_ready", "1 when the server answers /readyz with 200 (not draining, not restoring)",
		func() float64 {
			if r.Ready() {
				return 1
			}
			return 0
		})
	m.GaugeFunc("predsvc_draining", "1 once BeginDrain flipped the server to draining (one-way)",
		func() float64 {
			if r.Draining() {
				return 1
			}
			return 0
		})

	m.GaugeFunc("predsvc_paths", "paths currently registered",
		func() float64 { return float64(r.reg.Len()) })
	m.GaugeFunc("predsvc_path_capacity", "registry hot-tier path capacity",
		func() float64 { return float64(r.reg.Capacity()) })
	m.CounterFunc("predsvc_evictions_total", "hot-tier LRU path evictions",
		r.reg.Evictions)

	// Storage tiers (see internal/predsvc/store): the store keeps these
	// counts itself, so they are read at scrape time rather than counted
	// twice. On the in-memory store cold/spills/faults stay zero; on a
	// spill store they track the disk tier — occupancy gauges, and
	// counters for sessions serialized out (spills) and read back (faults).
	m.GaugeFunc("predsvc_store_hot_paths", "sessions resident in the in-memory hot tier",
		func() float64 { return float64(r.reg.TierStats().HotPaths) })
	m.GaugeFunc("predsvc_store_cold_paths", "sessions resident only in the spill log",
		func() float64 { return float64(r.reg.TierStats().ColdPaths) })
	m.CounterFunc("predsvc_store_spills_total", "sessions spilled to the cold tier on eviction",
		func() uint64 { return r.reg.TierStats().Spills })
	m.CounterFunc("predsvc_store_faults_total", "spill-log reads that rebuilt a session",
		func() uint64 { return r.reg.TierStats().Faults })
	m.CounterFunc("predsvc_store_errors_total", "spill records dropped on checksum or codec failure",
		func() uint64 { return r.reg.TierStats().Errors })
	m.GaugeFunc("predsvc_uptime_seconds", "seconds since the server was built",
		func() float64 { return time.Since(r.start).Seconds() })
	m.GaugeFunc("predsvc_goroutines", "goroutines in the process",
		func() float64 { return float64(runtime.NumGoroutine()) })

	// Per-family tournament metrics: the gauges average each family's
	// rolling RMSRE (paper Eq. 5) and regret over the paths where its
	// error window has content, and the counters track how often each
	// family won the online selection. Each gauge below walks every live
	// session once per scrape: two per family and three more, 11 walks
	// for the zoo's four families.
	mt.familySelections = make([]*obs.Counter, len(families))
	for i, name := range families {
		m.GaugeFunc(fmt.Sprintf("predsvc_rmsre{predictor=%q}", name),
			"mean rolling RMSRE (Eq. 5) across paths",
			func() float64 { return r.familyMean(i, (*predict.Ensemble).FamilyRMSRE) })
		m.GaugeFunc(fmt.Sprintf("predsvc_regret{family=%q}", name),
			"mean rolling regret vs the best-in-hindsight family, across paths",
			func() float64 { return r.familyMean(i, (*predict.Ensemble).FamilyRegret) })
		mt.familySelections[i] = m.Counter(fmt.Sprintf("predsvc_family_selected_total{family=%q}", name),
			"predict responses this family won")
	}
	m.GaugeFunc("predsvc_interval_coverage",
		"fraction of observations inside the standing [p10,p90] interval, across paths",
		func() float64 { return r.intervalCoverage() })

	m.GaugeFunc("predsvc_lso_shifts", "level shifts detected, summed over live sessions",
		func() float64 { s, _ := r.lsoTotals(); return float64(s) })
	m.GaugeFunc("predsvc_lso_outliers", "samples currently labelled outliers, summed over live sessions",
		func() float64 { _, o := r.lsoTotals(); return float64(o) })
}

// familyMean averages stat(e, i) — family i's statistic on ensemble e —
// over every live session where it is defined. Sessions self-lock; the
// scrape never blocks the registry shards on predictor state.
func (r *Server) familyMean(i int, stat func(*predict.Ensemble, int) (float64, bool)) float64 {
	var sum float64
	var n int
	r.reg.forEachLRU(func(s *Session) {
		s.withEnsemble(func(e *predict.Ensemble) {
			if v, ok := stat(e, i); ok {
				sum += v
				n++
			}
		})
	})
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// intervalCoverage sums the coverage counters over live sessions: the
// fraction of observations that landed inside the standing [P10,P90]
// interval of the then-selected family (0 until anything was scored;
// nominal is 0.8).
func (r *Server) intervalCoverage() float64 {
	var in, total uint64
	r.reg.forEachLRU(func(s *Session) {
		s.withEnsemble(func(e *predict.Ensemble) {
			i, t := e.Coverage()
			in += i
			total += t
		})
	})
	if total == 0 {
		return 0
	}
	return float64(in) / float64(total)
}

// lsoTotals sums LSO detections over every live session.
func (r *Server) lsoTotals() (shifts, outliers int) {
	r.reg.forEachLRU(func(s *Session) {
		s.withEnsemble(func(e *predict.Ensemble) {
			sh, out := e.LSOStats()
			shifts += sh
			outliers += out
		})
	})
	return
}
