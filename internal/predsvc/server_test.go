package predsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

func TestServerEndpoints(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Unknown path: 404 before any traffic.
	if resp, _ := getJSON(t, ts.URL+"/v1/predict?path=nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("predict unknown path: status %d, want 404", resp.StatusCode)
	}
	// Missing path parameter: 400.
	if resp, _ := getJSON(t, ts.URL+"/v1/predict"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("predict without path: status %d, want 400", resp.StatusCode)
	}
	// Bad bodies: 400.
	if resp, _ := postJSON(t, ts.URL+"/v1/observe", `{"path":"p"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("observe without throughput: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/observe", `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("observe with junk body: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/measure", `{"path":"p","loss_rate":2}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("measure with loss_rate 2: status %d, want 400", resp.StatusCode)
	}
	// Wrong method: 405 from the Go 1.22 mux.
	if resp, _ := getJSON(t, ts.URL+"/v1/observe"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET observe: status %d, want 405", resp.StatusCode)
	}

	// Happy path: measure → observe ×3 → predict.
	resp, data := postJSON(t, ts.URL+"/v1/measure",
		`{"path":"p1","rtt_s":0.05,"loss_rate":0.005,"avail_bw_bps":2e7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure: status %d, body %s", resp.StatusCode, data)
	}
	var mr MeasureResponse
	if err := json.Unmarshal(data, &mr); err != nil || mr.ForecastBps <= 0 {
		t.Fatalf("measure response %s (err %v), want positive forecast", data, err)
	}
	for i, x := range []float64{10e6, 12e6, 11e6, 12.5e6} {
		resp, data := postJSON(t, ts.URL+"/v1/observe",
			fmt.Sprintf(`{"path":"p1","throughput_bps":%g}`, x))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe %d: status %d, body %s", i, resp.StatusCode, data)
		}
	}
	resp, data = getJSON(t, ts.URL+"/v1/predict?path=p1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d", resp.StatusCode)
	}
	var pred Prediction
	if err := json.Unmarshal(data, &pred); err != nil {
		t.Fatalf("predict body %s: %v", data, err)
	}
	if pred.Observations != 4 || pred.Best == "" || pred.FB == nil {
		t.Errorf("unexpected prediction: %+v", pred)
	}

	// Stats: global and per-path.
	resp, data = getJSON(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Paths != 1 || st.Metrics.Observations != 4 {
		t.Errorf("stats: paths %d obs %d, want 1/4", st.Paths, st.Metrics.Observations)
	}
	var epObs EndpointSnapshot
	for _, e := range st.Metrics.Endpoints {
		if e.Name == "observe" {
			epObs = e
		}
	}
	if epObs.Requests != 6 { // 4 good + 2 bad-body (405 is counted by the mux, not the handler)
		t.Errorf("observe endpoint requests = %d, want 6", epObs.Requests)
	}
	if epObs.Errors != 2 {
		t.Errorf("observe endpoint errors = %d, want 2", epObs.Errors)
	}
	if epObs.Latency.Total != 6 {
		t.Errorf("observe latency total = %d, want 6", epObs.Latency.Total)
	}
	if resp, _ = getJSON(t, ts.URL+"/v1/stats?path=p1"); resp.StatusCode != http.StatusOK {
		t.Errorf("per-path stats: status %d", resp.StatusCode)
	}
	if resp, _ = getJSON(t, ts.URL+"/v1/stats?path=zzz"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("per-path stats unknown: status %d, want 404", resp.StatusCode)
	}

	// /debug/vars was folded into /v1/stats and /metrics; it is gone, not
	// silently empty.
	if resp, _ = getJSON(t, ts.URL+"/debug/vars"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/vars: status %d, want 404", resp.StatusCode)
	}
}

// TestPredictResponsesByteIdentical replays a fixed trace against two
// fresh servers and requires every /v1/predict body to match byte for
// byte — the acceptance criterion that determinism survives the service
// layer.
func TestPredictResponsesByteIdentical(t *testing.T) {
	series := SyntheticSeries(3, 50, 4242)
	run := func() [][]byte {
		srv := NewServer(Config{Shards: 8, Capacity: 64})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		var bodies [][]byte
		for _, ps := range series {
			for i, x := range ps.Throughputs {
				in := ps.Inputs[i]
				postJSON(t, ts.URL+"/v1/measure", fmt.Sprintf(
					`{"path":%q,"rtt_s":%g,"loss_rate":%g,"avail_bw_bps":%g}`,
					ps.Path, in.RTT, in.LossRate, in.AvailBw))
				_, body := getJSON(t, ts.URL+"/v1/predict?path="+ps.Path)
				bodies = append(bodies, body)
				postJSON(t, ts.URL+"/v1/observe", fmt.Sprintf(
					`{"path":%q,"throughput_bps":%g}`, ps.Path, x))
			}
		}
		return bodies
	}
	b1 := run()
	b2 := run()
	if len(b1) != len(b2) {
		t.Fatalf("body counts differ: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		if !bytes.Equal(b1[i], b2[i]) {
			t.Fatalf("predict body %d differs across runs:\n%s\n%s", i, b1[i], b2[i])
		}
	}
}

// TestPredictShardCountInvariance: the same request sequence must produce
// the same predict bodies whatever the shard count — sharding is a
// concurrency artifact, not part of the service's visible behaviour.
func TestPredictShardCountInvariance(t *testing.T) {
	series := SyntheticSeries(4, 30, 17)
	run := func(shards int) []byte {
		srv := NewServer(Config{Shards: shards, Capacity: 64})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		var all bytes.Buffer
		for _, ps := range series {
			for i, x := range ps.Throughputs {
				in := ps.Inputs[i]
				postJSON(t, ts.URL+"/v1/measure", fmt.Sprintf(
					`{"path":%q,"rtt_s":%g,"loss_rate":%g,"avail_bw_bps":%g}`,
					ps.Path, in.RTT, in.LossRate, in.AvailBw))
				_, body := getJSON(t, ts.URL+"/v1/predict?path="+ps.Path)
				all.Write(body)
				postJSON(t, ts.URL+"/v1/observe", fmt.Sprintf(
					`{"path":%q,"throughput_bps":%g}`, ps.Path, x))
			}
		}
		return all.Bytes()
	}
	if !bytes.Equal(run(1), run(32)) {
		t.Error("predict bodies differ between 1-shard and 32-shard registries")
	}
}
