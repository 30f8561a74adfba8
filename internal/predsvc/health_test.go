package predsvc

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func getReady(t *testing.T, url string) (int, readyResponse) {
	t.Helper()
	resp, data := getJSON(t, url+"/readyz")
	var rr readyResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatalf("bad /readyz body %s: %v", data, err)
	}
	return resp.StatusCode, rr
}

// TestHealthAndReadyEndpoints: /healthz says "the process is up" no
// matter what; /readyz flips to 503 one-way when the server drains, and
// /v1/stats mirrors both bits for operators.
func TestHealthAndReadyEndpoints(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, data := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d %s", resp.StatusCode, data)
	}
	if status, rr := getReady(t, ts.URL); status != http.StatusOK || !rr.Ready {
		t.Fatalf("/readyz before drain: %d %+v, want 200 ready", status, rr)
	}

	srv.BeginDrain()
	if status, rr := getReady(t, ts.URL); status != http.StatusServiceUnavailable || rr.Ready || !rr.Draining {
		t.Fatalf("/readyz while draining: %d %+v, want 503 draining", status, rr)
	}
	// Draining is not dead: health and the API keep answering.
	if resp, _ := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatal("/healthz went down during drain")
	}
	if resp, data := postJSON(t, ts.URL+"/v1/observe", `{"path":"d","throughput_bps":1e7}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("API refused traffic during drain: %d %s", resp.StatusCode, data)
	}
	var st StatsResponse
	_, data := getJSON(t, ts.URL+"/v1/stats")
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Ready || !st.Draining {
		t.Fatalf("stats ready=%v draining=%v during drain", st.Ready, st.Draining)
	}
}

// TestReadyzWhileRestoring: a server mid-restore is alive but must not
// receive routed traffic yet.
func TestReadyzWhileRestoring(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.notReady.Store(true)
	if status, rr := getReady(t, ts.URL); status != http.StatusServiceUnavailable || !rr.Restoring || rr.Draining {
		t.Fatalf("/readyz while restoring: %d %+v, want 503 restoring", status, rr)
	}
	srv.notReady.Store(false)
	if status, _ := getReady(t, ts.URL); status != http.StatusOK {
		t.Fatalf("/readyz after restore: %d, want 200", status)
	}
	if !srv.Ready() {
		t.Fatal("Server.Ready() disagrees with /readyz")
	}
}

// TestHealthBypassesLoadShedding: with the in-flight cap saturated the
// API sheds 429s, but the health endpoints must keep answering — a
// probe that gets shed reads as a dead node and amplifies the overload.
func TestHealthBypassesLoadShedding(t *testing.T) {
	srv := NewServer(Config{maxInFlight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.sem <- struct{}{} // saturate the in-flight semaphore
	defer func() { <-srv.sem }()

	// The API sheds...
	if resp, _ := postJSON(t, ts.URL+"/v1/observe", `{"path":"s2","throughput_bps":1e7}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated API answered %d, want 429", resp.StatusCode)
	}
	// ...while health stays reachable.
	if resp, _ := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz shed under load: %d", resp.StatusCode)
	}
	if status, _ := getReady(t, ts.URL); status != http.StatusOK {
		t.Fatalf("/readyz shed under load: %d", status)
	}
}

// TestServeDrainWindow: cancelling Serve's context starts the drain —
// /readyz turns 503 while, for DrainDelay, the API still serves. This is
// the window a rolling restart leans on: cluster clients see "not ready"
// and stop routing here before connections start failing.
func TestServeDrainWindow(t *testing.T) {
	srv := NewServer(Config{DrainDelay: 400 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	// Wait for the listener to serve, then trigger the drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp, err := http.Get(url + "/readyz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()

	// Inside the drain window: not ready, still serving.
	sawDraining := false
	for i := 0; i < 50; i++ {
		resp, err := http.Get(url + "/readyz")
		if err != nil {
			break // listener closed — window over
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			sawDraining = true
			r2, err := http.Post(url+"/v1/observe", "application/json",
				strings.NewReader(`{"path":"w","throughput_bps":1e7}`))
			if err == nil {
				if r2.StatusCode != http.StatusOK {
					t.Errorf("API answered %d during the drain window, want 200", r2.StatusCode)
				}
				r2.Body.Close()
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawDraining {
		t.Fatal("never observed /readyz=503 inside the drain window")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the drain")
	}
	if !srv.Draining() {
		t.Fatal("server not marked draining after shutdown")
	}
}
