package cluster

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func testClient(t *testing.T, nodes ...string) *Client {
	t.Helper()
	return NewClient(ClientConfig{
		Nodes:         nodes,
		backoffMin:    time.Millisecond,
		backoffMax:    5 * time.Millisecond,
		retryDeadline: 5 * time.Second,
		probeInterval: 2 * time.Millisecond,
	})
}

// TestDoRetries429And5xx: shed load and server-side failures are retried
// until the node answers, and both flavors land in the stats.
func TestDoRetries429And5xx(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.WriteHeader(http.StatusTooManyRequests)
		case 2:
			w.WriteHeader(http.StatusInternalServerError)
		default:
			w.Write([]byte(`{"ok":true}`))
		}
	}))
	defer ts.Close()

	c := testClient(t, ts.URL)
	status, body, err := c.Do(context.Background(), http.MethodGet, ts.URL, "/x", nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("Do = %d, %v; want 200", status, err)
	}
	if string(body) != `{"ok":true}` {
		t.Fatalf("body %q", body)
	}
	st := c.Stats()
	if st.Retries != 2 || st.ShedRetries != 1 {
		t.Fatalf("stats %+v, want 2 retries of which 1 shed", st)
	}
	if st.Failovers != 0 {
		t.Fatalf("HTTP-level retries counted as failovers: %+v", st)
	}
	if calls.Load() != 3 || st.Completed[ts.URL] != 1 {
		t.Fatalf("%d attempts, per-node accounting %+v, want 3 attempts / 1 completed", calls.Load(), st)
	}
}

// TestDoPassesThroughClientErrors: 4xx other than 429 is the caller's
// problem; it must come back immediately, not retry.
func TestDoPassesThroughClientErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"no such path"}`, http.StatusNotFound)
	}))
	defer ts.Close()

	c := testClient(t, ts.URL)
	status, _, err := c.Do(context.Background(), http.MethodGet, ts.URL, "/x", nil)
	if err != nil || status != http.StatusNotFound {
		t.Fatalf("Do = %d, %v; want 404 passed through", status, err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("404 was attempted %d times, want 1", n)
	}
}

// TestDoRetryDeadline: a node that never recovers fails the request once
// the retry window closes, with an error rather than a fabricated status.
func TestDoRetryDeadline(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := NewClient(ClientConfig{
		Nodes:         []string{ts.URL},
		backoffMin:    time.Millisecond,
		backoffMax:    2 * time.Millisecond,
		retryDeadline: 50 * time.Millisecond,
	})
	start := time.Now()
	_, _, err := c.Do(context.Background(), http.MethodGet, ts.URL, "/x", nil)
	if err == nil {
		t.Fatal("Do succeeded against a permanently failing node")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("deadline took %v to fire", d)
	}
}

// TestDoRidesOutNodeRestart is the failover path end to end: the node is
// down (connection refused) when the request starts, the client parks on
// /readyz probes, and the request completes — counted as a failover —
// once the node comes back on the same address.
func TestDoRidesOutNodeRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // node is now down; the port stays ours to reclaim

	c := testClient(t, "http://"+addr)
	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		status, _, err := c.Do(context.Background(), http.MethodGet, "http://"+addr, "/v1/stats", nil)
		done <- result{status, err}
	}()

	// Let the client hit connection-refused and start probing, then bring
	// the node back up on the same address.
	time.Sleep(50 * time.Millisecond)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ready":true}`))
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"paths":0}`))
	})
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("reclaim %s: %v", addr, err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln2)
	defer srv.Close()

	select {
	case r := <-done:
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("Do after restart = %d, %v; want 200", r.status, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request never completed after the node came back")
	}
	st := c.Stats()
	if st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1 (one request rode out the restart)", st.Failovers)
	}
}

// TestWaitReady: a 503 node (draining, or still restoring) is not ready;
// WaitReady keeps polling until the flip and gives up when its context ends.
func TestWaitReady(t *testing.T) {
	var ready atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		if !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ready":true}`))
	}))
	defer ts.Close()

	c := testClient(t, ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	err := c.WaitReady(ctx, ts.URL)
	cancel()
	if err == nil {
		t.Fatal("WaitReady returned before the node was ready")
	}
	if healthy, rdy := c.Probe(context.Background(), ts.URL); healthy || rdy {
		// /healthz is a 404 on this stub, so the node reads as unhealthy.
		t.Fatalf("Probe = healthy=%v ready=%v on a 503/404 stub", healthy, rdy)
	}
	go func() {
		time.Sleep(15 * time.Millisecond)
		ready.Store(true)
	}()
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.WaitReady(ctx, ts.URL); err != nil {
		t.Fatalf("WaitReady after flip: %v", err)
	}
}
