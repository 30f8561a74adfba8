// Package predsvc is the online serving layer of the reproduction: a
// concurrent, sharded in-memory path registry that owns one goroutine-safe
// predictor session per network path, exposed over an HTTP JSON API by
// cmd/predserverd and exercised by the cmd/predload load generator.
//
// The paper evaluates its predictors offline, over recorded traces; this
// package is the deployment shape the paper motivates (§1, §7): overlay
// routing, replica selection and streaming systems ask "what throughput
// will a bulk transfer on path P achieve right now?" before starting the
// transfer. Each session keeps the paper's History-Based ensemble
// (MA/EWMA/Holt-Winters with LSO, §5), a Formula-Based
// predictor fed with the latest pre-flow measurements (Eq. 3), and rolling
// accuracy statistics — the relative error of Eq. 4 and the RMSRE of
// Eq. 5 over a sliding window — so the service can also answer "which
// predictor is best on this path right now".
//
// Determinism contract: for a fixed per-path sequence of observe/measure
// requests, every /v1/predict response body is byte-identical across runs
// and across registry shard counts; accuracy state is per-path and updated
// only by that path's requests.
package predsvc

import (
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// Config tunes the registry and the server. The per-path predictor zoo has
// no settings: every session runs predict.NewEnsemble, the paper's
// configuration. The zero value picks sensible defaults.
type Config struct {
	// Shards is the number of registry shards, rounded up to a power of
	// two (default 16). More shards reduce lock contention.
	Shards int
	// Capacity is the maximum number of paths kept hot in memory; the
	// least-recently-used path of a full shard is evicted to admit a new
	// one. Enforced per shard as Capacity/Shards (default 4096, min 1 per
	// shard). Without SpillDir an eviction loses the session; with it the
	// session spills to disk instead.
	Capacity int

	// SpillDir, when non-empty, backs the registry with the two-tier
	// store.SpillStore: the LRU keeps Capacity sessions hot in memory and
	// evicts cold ones to an append-only checksummed log under SpillDir,
	// faulting them back in on access — one node holds millions of cold
	// paths in bounded RSS. The log is a cache extension, truncated on
	// boot; snapshots remain the restart durability story. Honored by
	// OpenRegistry and Open (NewServer/NewRegistry panic if the directory
	// cannot be opened).
	SpillDir string

	// ReadHeaderTimeout bounds how long Serve's http.Server waits for a
	// client to finish sending request headers — the slowloris guard
	// (default 5s; negative disables).
	ReadHeaderTimeout time.Duration
	// RequestTimeout is the per-request context deadline installed by the
	// hardening middleware (default 15s; negative disables).
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently served requests; past it the server
	// sheds load with 429 + Retry-After instead of queueing without bound
	// (default 1024; negative disables shedding).
	MaxInFlight int

	// DrainDelay is how long Serve keeps the listener accepting after
	// /readyz flips to 503 on shutdown, giving cluster clients a probe
	// cycle to stop routing here before connections start closing
	// (default 0: drain immediately; rolling restarts in scripts use a
	// short delay).
	DrainDelay time.Duration

	// SnapshotRetryMin/Max bound the exponential backoff between retries
	// of a failed snapshot write (defaults 250ms / 15s).
	SnapshotRetryMin time.Duration
	SnapshotRetryMax time.Duration

	// Faults is an optional deterministic fault injector; sites are the
	// Site* constants in this package. Nil injects nothing.
	Faults *faultinject.Injector

	// Obs, when non-nil, plugs the server into the observability layer:
	// the service's instruments live in its registry and are exported
	// through /metrics (see registerMetrics for the catalogue; without
	// Obs the same counters still feed /v1/stats, they are just not
	// exported), each request records a span,
	// and the obs endpoints (/metrics, /debug/pprof/, /debug/trace) are
	// served from the same listener — routed around the hardening
	// middleware so load shedding can never shed a scrape.
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	c.Shards = nextPow2(c.Shards)
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	if c.ReadHeaderTimeout == 0 {
		c.ReadHeaderTimeout = 5 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 1024
	}
	if c.SnapshotRetryMin <= 0 {
		c.SnapshotRetryMin = 250 * time.Millisecond
	}
	if c.SnapshotRetryMax <= 0 {
		c.SnapshotRetryMax = 15 * time.Second
	}
	return c
}

// posDur maps the "negative disables" config convention onto http.Server's
// "zero disables" one.
func posDur(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// nextPow2 returns the smallest power of two ≥ n (n ≥ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
