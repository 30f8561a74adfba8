package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"
)

// ClientConfig tunes a Client.
type ClientConfig struct {
	// Nodes are the cluster's base URLs; paths route over them with the
	// same rendezvous Map every other client computes. Required.
	Nodes []string
	// HTTP overrides the underlying http.Client (default: a fresh client
	// with a modestly sized keep-alive pool).
	HTTP *http.Client
	// backoffMin/Max bound the capped exponential backoff between
	// retries, with up to 50% jitter added so many clients recovering
	// from the same node restart do not retry in lockstep (defaults
	// 5ms / 500ms; tests shorten them).
	backoffMin time.Duration
	backoffMax time.Duration
	// retryDeadline bounds how long one request keeps retrying through
	// 429s, 5xxs and connection errors before giving up — the window a
	// node restart must fit into (default 30s; tests shorten it).
	retryDeadline time.Duration
	// probeInterval is the /readyz polling cadence while a node is down
	// (default 25ms; tests shorten it).
	probeInterval time.Duration
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.HTTP == nil {
		c.HTTP = &http.Client{
			Transport: &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16},
		}
	}
	if c.backoffMin <= 0 {
		c.backoffMin = 5 * time.Millisecond
	}
	if c.backoffMax <= 0 {
		c.backoffMax = 500 * time.Millisecond
	}
	if c.retryDeadline <= 0 {
		c.retryDeadline = 30 * time.Second
	}
	if c.probeInterval <= 0 {
		c.probeInterval = 25 * time.Millisecond
	}
	return c
}

// ClientStats snapshots a Client's retry accounting.
type ClientStats struct {
	// Completed counts requests that ultimately returned a response,
	// keyed by node base URL — the per-node share of served traffic.
	Completed map[string]uint64
	// ShedRetries counts 429 responses absorbed by backing off.
	ShedRetries uint64
	// Retries counts all backoff sleeps (429, 5xx, transport).
	Retries uint64
	// Failovers counts requests that hit at least one transport error
	// (connection refused/reset — a node down or restarting) and still
	// completed after riding it out.
	Failovers uint64
}

// Client routes requests to rendezvous-owned nodes and retries through
// the failures a live cluster throws at it: 429 load shedding, 5xx
// responses, and connection errors while a node restarts. On a
// connection error it probes the node's /readyz until the node is back
// (a draining node answers 503 and is treated as still down), then
// replays the request — so a rolling restart stalls the caller briefly
// instead of failing it. Requests are buffered only as their byte
// slices (the caller's body), so the memory held while a node is down
// is bounded by the caller's own pipelining.
//
// All methods are goroutine-safe.
type Client struct {
	cfg ClientConfig
	m   *Map

	idx       map[string]int // node URL → counter index
	completed []atomic.Uint64
	shed      atomic.Uint64
	retries   atomic.Uint64
	failovers atomic.Uint64
}

// NewClient builds a Client over the given nodes. Panics when cfg.Nodes
// is empty.
func NewClient(cfg ClientConfig) *Client {
	if len(cfg.Nodes) == 0 {
		panic("cluster: ClientConfig.Nodes is required")
	}
	cfg = cfg.withDefaults()
	c := &Client{
		cfg:       cfg,
		m:         New(cfg.Nodes...),
		idx:       make(map[string]int, len(cfg.Nodes)),
		completed: make([]atomic.Uint64, len(cfg.Nodes)),
	}
	for i, n := range cfg.Nodes {
		c.idx[n] = i
	}
	return c
}

// Map returns the rendezvous map the client routes with.
func (c *Client) Map() *Map { return c.m }

// Stats snapshots the retry accounting.
func (c *Client) Stats() ClientStats {
	s := ClientStats{
		Completed:   make(map[string]uint64, len(c.cfg.Nodes)),
		ShedRetries: c.shed.Load(),
		Retries:     c.retries.Load(),
		Failovers:   c.failovers.Load(),
	}
	for i, n := range c.cfg.Nodes {
		s.Completed[n] = c.completed[i].Load()
	}
	return s
}

// Probe asks one node's health endpoints: healthy is /healthz == 200
// (the process is up), ready is /readyz == 200 (it wants traffic).
func (c *Client) Probe(ctx context.Context, node string) (healthy, ready bool) {
	healthy = c.probeOne(ctx, node+"/healthz")
	ready = healthy && c.probeOne(ctx, node+"/readyz")
	return
}

func (c *Client) probeOne(ctx context.Context, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// WaitReady polls node's /readyz until it answers 200 or ctx is done.
func (c *Client) WaitReady(ctx context.Context, node string) error {
	for {
		if c.probeOne(ctx, node+"/readyz") {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: node %s not ready: %w", node, ctx.Err())
		case <-time.After(c.cfg.probeInterval):
		}
	}
}

// retryable says whether a status code is worth replaying: shed load,
// or a server-side failure a restart/retry can clear. 4xx responses
// other than 429 pass through — they are the caller's bug or a genuine
// "not found", and retrying cannot change them.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// Do sends one request to node (a base URL from Nodes, or any reachable
// base URL), retrying 429/5xx responses and transport errors with
// capped jittered backoff for up to 30 s. It returns the final
// status and body; err is non-nil only when the deadline or ctx expired
// with the request still failing. body may be nil for GETs.
func (c *Client) Do(ctx context.Context, method, node, path string, body []byte) (int, []byte, error) {
	retryCtx, cancel := context.WithTimeout(ctx, c.cfg.retryDeadline)
	defer cancel()
	backoff := c.cfg.backoffMin
	sawTransportErr := false
	for {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, node+path, rd)
		if err != nil {
			return 0, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.cfg.HTTP.Do(req)
		if err == nil {
			data, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				err = rerr
			} else if !retryable(resp.StatusCode) {
				if sawTransportErr {
					c.failovers.Add(1)
				}
				if i, ok := c.idx[node]; ok {
					c.completed[i].Add(1)
				}
				return resp.StatusCode, data, nil
			} else if resp.StatusCode == http.StatusTooManyRequests {
				c.shed.Add(1)
			}
		}
		if err != nil {
			// Connection refused/reset: the node is down or restarting.
			// Probe its /readyz so the retry lands once it is actually
			// back, instead of burning the backoff budget on a dead port.
			if !sawTransportErr {
				sawTransportErr = true
			}
			if werr := c.WaitReady(retryCtx, node); werr != nil {
				return 0, nil, fmt.Errorf("cluster: %s %s%s: %v (while down: %w)", method, node, path, err, werr)
			}
		}
		c.retries.Add(1)
		sleep := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		select {
		case <-retryCtx.Done():
			if err == nil {
				err = fmt.Errorf("cluster: %s %s%s: retry deadline exceeded", method, node, path)
			}
			return 0, nil, err
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > c.cfg.backoffMax {
			backoff = c.cfg.backoffMax
		}
	}
}
