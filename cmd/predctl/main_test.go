package main

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/predsvc/cluster"
)

// TestNodeStatusGivesUpOnAWedgedNode: a node that accepts connections and
// never answers must not hang `predctl status`. The caller's context has
// no deadline, as the signal context statusCmd passes has none; the
// per-node bound alone must end the probe and the stats fetch.
func TestNodeStatusGivesUpOnAWedgedNode(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	// Closing the accepted connections also frees a nodeStatus that is
	// still blocked when the test fails.
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	prev := nodeTimeout
	nodeTimeout = 100 * time.Millisecond
	t.Cleanup(func() { nodeTimeout = prev })

	node := "http://" + ln.Addr().String()
	cc := cluster.NewClient(cluster.ClientConfig{Nodes: []string{node}})
	done := make(chan bool, 1)
	go func() {
		_, healthy := nodeStatus(context.Background(), cc, node)
		done <- healthy
	}()
	select {
	case healthy := <-done:
		if healthy {
			t.Error("a node that never answered reads as healthy")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("status of a wedged node still blocked after 3s")
	}
}
