package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestFetchStatsGivesUpOnAWedgedNode: a node that accepts the request and
// never answers must not hang `predctl status`; the fetch ends with its
// context.
func TestFetchStatsGivesUpOnAWedgedNode(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := fetchStats(ctx, srv.URL); err == nil {
		t.Fatal("fetchStats from a wedged node returned no error")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("fetchStats took %v to give up", d)
	}
}
