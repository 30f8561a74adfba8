package predsvc

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/predict"
)

// scrape fetches url and returns the body.
func scrape(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// sampleValue extracts the value of an exposition line whose name (with
// labels) equals name exactly.
func sampleValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("exposition has no sample %q\n---\n%s", name, exposition)
	return 0
}

// TestMetricsEndpointE2E is the observability acceptance test: a real
// daemon (own TCP listener) under the predload generator, with chaos
// faults ticking the resilience counters, must serve a /metrics
// exposition that (a) is valid Prometheus text format, (b) agrees with
// /v1/stats on the counters both serve, and (c) keeps being served while
// the API itself is shedding load.
func TestMetricsEndpointE2E(t *testing.T) {
	o := obs.New(1024)
	inj := faultinject.New(3, faultinject.Rule{Site: SiteHandlerPanic, Every: 1})
	srv := NewServer(Config{
		Shards: 4, Capacity: 64,
		MaxInFlight: 64,
		Faults:      inj,
		Obs:         o,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	defer func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("daemon did not shut down within 10s")
		}
	}()

	// Drive real load, then tick the resilience counters: one chaos
	// probe panics inside the handler chain, and one request is shed
	// while the in-flight semaphore is saturated by hand.
	series := SyntheticSeries(4, 20, 5)
	if _, err := Replay(context.Background(), LoadConfig{Nodes: []string{base}, Workers: 4}, series); err != nil {
		t.Fatal(err)
	}
	// One round through each batch endpoint so their per-endpoint families
	// appear in the exposition.
	if resp, err := http.Post(base+"/v1/observe-batch", "application/json",
		strings.NewReader(`{"observations":[{"path":"batched","throughput_bps":1e7}]}`)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe-batch status = %d", resp.StatusCode)
		}
	}
	if resp, err := http.Post(base+"/v1/predict-batch", "application/json",
		strings.NewReader(`{"paths":["batched"]}`)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict-batch status = %d", resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/stats", nil)
	req.Header.Set(ChaosPanicHeader, "1")
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("chaos probe status = %d, want 500", resp.StatusCode)
		}
	}
	for i := 0; i < cap(srv.sem); i++ {
		srv.sem <- struct{}{}
	}
	if code, _ := scrape(t, base+"/v1/stats"); code != http.StatusTooManyRequests {
		t.Fatalf("saturated API status = %d, want 429", code)
	}
	// The obs endpoints bypass the shedding middleware: the scrape must
	// succeed while the API proper is refusing traffic.
	code, exposition := scrape(t, base+obs.PathMetrics)
	if code != http.StatusOK {
		t.Fatalf("/metrics status under load shedding = %d, want 200", code)
	}
	for i := 0; i < cap(srv.sem); i++ {
		<-srv.sem
	}

	if err := obs.ValidateExposition([]byte(exposition)); err != nil {
		t.Fatalf("/metrics exposition invalid: %v\n---\n%s", err, exposition)
	}

	// /v1/stats reads the same instruments. (Fetched after the scrape, so
	// only the stats endpoint's own counters have moved since.)
	codeStats, statsBody := scrape(t, base+"/v1/stats")
	if codeStats != http.StatusOK {
		t.Fatalf("/v1/stats status = %d", codeStats)
	}
	var stats StatsResponse
	if err := json.Unmarshal([]byte(statsBody), &stats); err != nil {
		t.Fatal(err)
	}
	ms := stats.Metrics
	for _, tc := range []struct {
		sample string
		want   float64
	}{
		{"predsvc_requests_shed_total", float64(ms.RequestsShed)},
		{"predsvc_panics_recovered_total", float64(ms.PanicsRecovered)},
		{"predsvc_observations_total", float64(ms.Observations)},
		{"predsvc_predictions_total", float64(ms.Predictions)},
		{"predsvc_paths", float64(stats.Paths)},
		// The in-memory store keeps everything hot; the tier gauges must
		// say exactly that.
		{"predsvc_store_hot_paths", float64(stats.Paths)},
		{"predsvc_store_cold_paths", 0},
	} {
		if got := sampleValue(t, exposition, tc.sample); got != tc.want {
			t.Errorf("%s = %v, /v1/stats says %v", tc.sample, got, tc.want)
		}
	}
	if shed := sampleValue(t, exposition, "predsvc_requests_shed_total"); shed < 1 {
		t.Errorf("requests_shed_total = %v, want ≥ 1 (one request was shed)", shed)
	}
	if panics := sampleValue(t, exposition, "predsvc_panics_recovered_total"); panics != 1 {
		t.Errorf("panics_recovered_total = %v, want 1", panics)
	}

	// Per-endpoint families, the accuracy gauges and the latency
	// histograms made it out too.
	for _, want := range []string{
		`predsvc_requests_total{endpoint="observe"}`,
		`predsvc_requests_total{endpoint="observe_batch"}`,
		`predsvc_requests_total{endpoint="predict_batch"}`,
		`predsvc_request_duration_seconds_bucket{endpoint="predict",le="+Inf"}`,
		`predsvc_request_duration_seconds_bucket{endpoint="observe_batch",le="+Inf"}`,
		`predsvc_request_duration_seconds_bucket{endpoint="predict_batch",le="+Inf"}`,
		`predsvc_rmsre{predictor="FB"}`,
		"predsvc_lso_shifts",
		"predsvc_store_spills_total",
		"predsvc_store_faults_total",
		"predsvc_uptime_seconds",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, ep := range []string{"observe_batch", "predict_batch"} {
		name := `predsvc_requests_total{endpoint="` + ep + `"}`
		if got := sampleValue(t, exposition, name); got != 1 {
			t.Errorf("%s = %v, want 1 (one batch request was sent)", name, got)
		}
	}

	// The handlers recorded spans, and the trace endpoints serve them.
	spans, _ := o.T().Snapshot()
	var observeSpans int
	for _, sp := range spans {
		if sp.Name == "predsvc.observe" {
			observeSpans++
		}
	}
	if observeSpans == 0 {
		t.Error("no predsvc.observe spans recorded under load")
	}
	if code, body := scrape(t, base+obs.PathTrace); code != http.StatusOK || !strings.Contains(body, "predsvc.predict") {
		t.Errorf("/debug/trace: status %d, predsvc.predict present: %v", code, strings.Contains(body, "predsvc.predict"))
	}
	if code, body := scrape(t, base+obs.PathPprof); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: status %d", code)
	}
}

// TestServerWithoutObs pins the off state: no Config.Obs, no /metrics —
// the daemon's HTTP surface is unchanged.
func TestServerWithoutObs(t *testing.T) {
	srv := NewServer(Config{})
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("/metrics without obs = %d, want 404", rec.Code)
	}
}

// metricsCatalogue is every family /metrics serves, with its type, in
// exposition order — the contract dashboards and the benchmark harness
// scrape against. It must not change without those changing too.
var metricsCatalogue = []string{
	"# TYPE predsvc_requests_total counter",
	"# TYPE predsvc_errors_total counter",
	"# TYPE predsvc_request_duration_seconds histogram",
	"# TYPE predsvc_observations_total counter",
	"# TYPE predsvc_predictions_total counter",
	"# TYPE predsvc_snapshots_written_total counter",
	"# TYPE predsvc_panics_recovered_total counter",
	"# TYPE predsvc_requests_shed_total counter",
	"# TYPE predsvc_rejected_inputs_total counter",
	"# TYPE predsvc_snapshot_retries_total counter",
	"# TYPE predsvc_snapshot_failures_total counter",
	"# TYPE predsvc_stale_predictions_total counter",
	"# TYPE predsvc_handoff_exported_total counter",
	"# TYPE predsvc_handoff_imported_total counter",
	"# TYPE predsvc_handoff_skipped_total counter",
	"# TYPE predsvc_handoff_dropped_total counter",
	"# TYPE predsvc_ready gauge",
	"# TYPE predsvc_draining gauge",
	"# TYPE predsvc_paths gauge",
	"# TYPE predsvc_path_capacity gauge",
	"# TYPE predsvc_evictions_total counter",
	"# TYPE predsvc_store_hot_paths gauge",
	"# TYPE predsvc_store_cold_paths gauge",
	"# TYPE predsvc_store_spills_total counter",
	"# TYPE predsvc_store_faults_total counter",
	"# TYPE predsvc_store_errors_total counter",
	"# TYPE predsvc_uptime_seconds gauge",
	"# TYPE predsvc_goroutines gauge",
	"# TYPE predsvc_rmsre gauge",
	"# TYPE predsvc_regret gauge",
	"# TYPE predsvc_family_selected_total counter",
	"# TYPE predsvc_interval_coverage gauge",
	"# TYPE predsvc_lso_shifts gauge",
	"# TYPE predsvc_lso_outliers gauge",
}

// latencyLeLabels is the `le` label of every finite latency bucket.
var latencyLeLabels = []string{
	"1e-06", "2e-06", "4e-06", "8e-06", "1.6e-05", "3.2e-05", "6.4e-05",
	"0.000128", "0.000256", "0.000512", "0.001024", "0.002048", "0.004096",
	"0.008192", "0.016384", "0.032768", "0.065536", "0.131072", "0.262144",
	"0.524288", "1.048576", "2.097152", "4.194304",
}

func scrapeInProcess(t *testing.T, srv *Server, target string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d", target, rec.Code)
	}
	return rec.Body.String()
}

// TestMetricsCatalogueGolden pins the exposition catalogue: family names,
// types, their order, and the latency bucket bounds.
func TestMetricsCatalogueGolden(t *testing.T) {
	srv := NewServer(Config{Obs: obs.New(16)})
	exposition := scrapeInProcess(t, srv, obs.PathMetrics)
	if err := obs.ValidateExposition([]byte(exposition)); err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}
	var types []string
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
		}
	}
	if strings.Join(types, "\n") != strings.Join(metricsCatalogue, "\n") {
		t.Errorf("catalogue changed:\ngot:\n%s\nwant:\n%s", strings.Join(types, "\n"), strings.Join(metricsCatalogue, "\n"))
	}
	for _, name := range endpointNames {
		for _, le := range append(latencyLeLabels, "+Inf") {
			sample := `predsvc_request_duration_seconds_bucket{endpoint="` + name + `",le="` + le + `"} 0`
			if !strings.Contains(exposition, sample+"\n") {
				t.Errorf("exposition missing %s", sample)
			}
		}
	}
}

// TestMetricsViewsAgree: after a mixed observe/measure/predict/batch run
// the three views of one endpoint's traffic — the latency histogram's
// _count, the request counter, and the /v1/stats JSON — are one number,
// and the histogram's _sum is real elapsed time: bounded by the request
// spans that enclose each handler, and exactly the sum of what the
// handlers recorded.
func TestMetricsViewsAgree(t *testing.T) {
	o := obs.New(4096)
	srv := NewServer(Config{Obs: o})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	series := SyntheticSeries(6, 12, 9)
	for _, batch := range []bool{false, true} {
		if _, err := Replay(context.Background(), LoadConfig{Nodes: []string{ts.URL}, Workers: 3, BatchObserve: batch}, series); err != nil {
			t.Fatal(err)
		}
	}
	for _, body := range []string{`{"paths":["synth-000","ghost"]}`, `{not json`} {
		resp, err := http.Post(ts.URL+"/v1/predict-batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var stats StatsResponse
	if err := json.Unmarshal([]byte(scrapeInProcess(t, srv, "/v1/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	exposition := scrapeInProcess(t, srv, obs.PathMetrics)
	spans, _ := o.T().Snapshot()
	for _, name := range []string{"observe", "measure", "predict", "observe_batch", "predict_batch"} {
		label := `{endpoint="` + name + `"}`
		requests := sampleValue(t, exposition, "predsvc_requests_total"+label)
		count := sampleValue(t, exposition, "predsvc_request_duration_seconds_count"+label)
		sum := sampleValue(t, exposition, "predsvc_request_duration_seconds_sum"+label)
		var fromStats EndpointSnapshot
		for _, ep := range stats.Metrics.Endpoints {
			if ep.Name == name {
				fromStats = ep
			}
		}
		if requests == 0 {
			t.Errorf("%s: no requests recorded; the run proves nothing", name)
		}
		if count != requests || float64(fromStats.Requests) != requests || float64(fromStats.Latency.Total) != requests {
			t.Errorf("%s: requests_total %v, duration_count %v, stats requests %d, stats latency total %d — want one number",
				name, requests, count, fromStats.Requests, fromStats.Latency.Total)
		}
		var enclosing float64
		for _, sp := range spans {
			if sp.Name == "predsvc."+name {
				enclosing += (sp.End - sp.Start).Seconds()
			}
		}
		if sum <= 0 || sum > enclosing {
			t.Errorf("%s: duration_sum %v, want within (0, %v] — the spans enclosing the handlers", name, sum, enclosing)
		}
	}

	// Exactness, on an endpoint nothing above touched: _sum is the sum of
	// the recorded durations, not an estimate from bucket midpoints.
	var want float64
	for _, d := range []time.Duration{3 * time.Microsecond, 700 * time.Microsecond, 41 * time.Millisecond, 1234567 * time.Nanosecond} {
		srv.metrics.record(epSessionsDrop, http.StatusOK, d)
		want += d.Seconds()
	}
	exposition = scrapeInProcess(t, srv, obs.PathMetrics)
	got := sampleValue(t, exposition, `predsvc_request_duration_seconds_sum{endpoint="sessions_drop"}`)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("sessions_drop duration_sum = %v, want %v (exact)", got, want)
	}
}

// TestLSOMetricsCountEachDetectionOnce: predsvc_lso_shifts and
// predsvc_lso_outliers count what the path's series holds — the level
// shifts and outliers one LSO detector finds in it — not that once per HB
// family.
func TestLSOMetricsCountEachDetectionOnce(t *testing.T) {
	srv := NewServer(Config{Obs: obs.New(64)})
	h := srv.Handler()
	lone := predict.NewLSO(predict.NewMA(10), predict.LSOConfig{})
	// A level with an outlier, a shift to three times the level, and an
	// outlier at the new level.
	for _, mbps := range []float64{10, 10.2, 9.8, 10, 2, 10.1, 9.9, 10, 30, 30.5, 29.8, 30.2, 5, 30.1, 29.9} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observe",
			strings.NewReader(`{"path":"shifty","throughput_bps":`+strconv.FormatFloat(mbps*1e6, 'g', -1, 64)+`}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("observe = %d: %s", rec.Code, rec.Body)
		}
		lone.Observe(mbps * 1e6)
	}
	if lone.Shifts == 0 || lone.Outliers == 0 {
		t.Fatalf("the series holds %d shifts and %d outliers; want both", lone.Shifts, lone.Outliers)
	}
	exposition := scrapeInProcess(t, srv, obs.PathMetrics)
	shifts, outliers := sampleValue(t, exposition, "predsvc_lso_shifts"), sampleValue(t, exposition, "predsvc_lso_outliers")
	if shifts != float64(lone.Shifts) || outliers != float64(lone.Outliers) {
		t.Errorf("predsvc_lso_shifts %v, predsvc_lso_outliers %v; one detector finds %d and %d",
			shifts, outliers, lone.Shifts, lone.Outliers)
	}
}

// TestRequestAccountingAllocFree: the per-request accounting — request,
// error and latency instruments plus the business counters a handler
// ticks — allocates nothing, whether the instruments are exported
// (Config.Obs) or detached.
func TestRequestAccountingAllocFree(t *testing.T) {
	for name, cfg := range map[string]Config{"detached": {}, "with obs": {Obs: obs.New(16)}} {
		srv := NewServer(cfg)
		family := srv.metrics.familyNames[len(srv.metrics.familyNames)-1]
		if n := testing.AllocsPerRun(200, func() {
			srv.metrics.record(epPredict, http.StatusOK, 37*time.Microsecond)
			srv.metrics.record(epObserve, http.StatusBadRequest, 2*time.Second)
			srv.metrics.observations.Add(1)
			srv.metrics.predictions.Add(1)
			srv.metrics.rejectedInputs.Add(1)
			srv.metrics.recordSelection(family)
		}); n != 0 {
			t.Errorf("%s: request accounting allocates %.1f per run, want 0", name, n)
		}
	}
}
