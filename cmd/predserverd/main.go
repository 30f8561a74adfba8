// Command predserverd is the online throughput-prediction daemon: it
// serves the internal/predsvc HTTP JSON API (observe / measure / predict /
// stats, plus the observe-batch / predict-batch bulk endpoints) over a
// sharded, LRU-bounded path registry, with graceful shutdown on
// SIGINT/SIGTERM and optional periodic snapshots of registry state.
// With -spill-dir the registry becomes a two-tier store: sessions evicted
// from the in-memory hot tier are serialized to an append-only checksummed
// spill log and faulted back on access, so the daemon holds far more paths
// than -capacity at a bounded resident set. Every path runs the same
// predictor zoo, the paper's configuration (predict.NewEnsemble), so any
// node of a cluster can restore any other node's sessions.
//
// The serving path is hardened for imperfect conditions: header/read/idle
// timeouts guard against slow clients, handler panics are converted into
// 500s instead of crashes, load past -max-inflight is shed with 429 +
// Retry-After, snapshot writes are checksummed and retried with backoff,
// and a corrupt snapshot at boot is quarantined (the daemon starts empty)
// rather than fatal. The daemon has no mode that attacks itself: the
// tests of internal/predsvc inject faults in-process against these
// defenses (go test -race -run TestEndToEndChaos ./internal/predsvc).
//
// For cluster operation the daemon serves /healthz (process up) and
// /readyz (wants traffic) outside the load-shedding middleware; SIGTERM
// flips /readyz to 503 (optionally holding it there for -drain-delay),
// lets in-flight requests finish, then writes the final snapshot. The
// /v1/sessions/{export,import,drop} endpoints implement checksummed
// shard handoff; drive them with predctl rebalance.
//
// The listener also serves /metrics (Prometheus text exposition of every
// service counter, latency histogram and accuracy gauge) and /debug/pprof/
// (standard Go profiles). These endpoints bypass the load-shedding
// middleware, so scrapes and profile grabs keep working exactly when the
// API is refusing traffic. The daemon records no spans: per-request
// timing is the latency histograms', and a profile answers the rest.
//
// Example:
//
//	predserverd -addr :8355 -capacity 8192 -snapshot /tmp/predsvc.json -snapshot-interval 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/predsvc"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8355", "listen address")
		shards       = flag.Int("shards", 16, "registry shards (rounded up to a power of two)")
		capacity     = flag.Int("capacity", 4096, "maximum paths kept (LRU eviction beyond this)")
		snapshotPath = flag.String("snapshot", "", "snapshot file (restored at startup, written periodically and at shutdown)")
		snapshotIvl  = flag.Duration("snapshot-interval", time.Minute, "interval between snapshots")
		spillDir     = flag.String("spill-dir", "", "directory for the two-tier store's spill log; paths evicted from the hot tier spill to disk instead of being dropped")

		maxInflight = flag.Int("max-inflight", 0, "concurrent-request cap before shedding with 429 (0 = default 1024, negative = unlimited)")
		readHdrTO   = flag.Duration("read-header-timeout", 0, "slowloris guard on request headers (0 = default 5s, negative = off)")
		drainDelay  = flag.Duration("drain-delay", 0, "extra time /readyz advertises draining before connections close on shutdown (lets cluster clients re-probe)")
	)
	flag.Parse()

	cfg := predsvc.Config{
		Obs:               obs.NewMetrics(),
		Shards:            *shards,
		Capacity:          *capacity,
		MaxInFlight:       *maxInflight,
		ReadHeaderTimeout: *readHdrTO,
		SpillDir:          *spillDir,
		DrainDelay:        *drainDelay,
	}
	srv, err := predsvc.Open(cfg)
	if err != nil {
		log.Fatalf("predserverd: open: %v", err)
	}
	if *spillDir != "" {
		log.Printf("predserverd: two-tier store: spilling cold paths to %s", *spillDir)
	}

	if *snapshotPath != "" {
		st, err := srv.RestoreSnapshot(*snapshotPath)
		if err != nil {
			log.Fatalf("predserverd: restore %s: %v", *snapshotPath, err)
		}
		if st.Quarantined != "" {
			log.Printf("predserverd: WARNING: corrupt snapshot quarantined to %s (%v); starting with an empty registry",
				st.Quarantined, st.Reason)
		}
		if st.Paths > 0 {
			log.Printf("predserverd: restored %d paths from %s", st.Paths, *snapshotPath)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("predserverd: listen %s: %v", *addr, err)
	}
	log.Printf("predserverd: serving on http://%s (%d shards, capacity %d)",
		ln.Addr(), srv.Registry().Shards(), srv.Registry().Capacity())
	log.Printf("predserverd: observability on http://%s{%s,%s}",
		ln.Addr(), obs.PathMetrics, obs.PathPprof)

	snapDone := make(chan error, 1)
	if *snapshotPath != "" {
		go func() { snapDone <- srv.SnapshotLoop(ctx, *snapshotPath, *snapshotIvl) }()
	} else {
		snapDone <- nil
	}

	if err := srv.Serve(ctx, ln); err != nil {
		log.Fatalf("predserverd: serve: %v", err)
	}
	if err := <-snapDone; err != nil {
		log.Fatalf("predserverd: snapshot: %v", err)
	}
	// Serve has drained all in-flight requests by now, so this final
	// snapshot includes observations accepted during the graceful
	// shutdown. It retries with backoff; an ultimately failed write is a
	// warning, not a crash — losing one snapshot is survivable, dying on
	// the way out is not.
	if *snapshotPath != "" {
		finalCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.WriteSnapshotRetry(finalCtx, *snapshotPath); err != nil {
			log.Printf("predserverd: WARNING: final snapshot failed after retries: %v", err)
		} else {
			log.Printf("predserverd: final snapshot written to %s", *snapshotPath)
		}
	}
	m := srv.Metrics().Snapshot()
	if m.PanicsRecovered > 0 || m.RequestsShed > 0 || m.SnapshotFailures > 0 {
		log.Printf("predserverd: resilience: panics_recovered=%d requests_shed=%d snapshot_failures=%d snapshot_retries=%d rejected_inputs=%d",
			m.PanicsRecovered, m.RequestsShed, m.SnapshotFailures, m.SnapshotRetries, m.RejectedInputs)
	}
	if ts := srv.Registry().TierStats(); ts.Spills > 0 || ts.ColdPaths > 0 {
		log.Printf("predserverd: store tiers: hot=%d cold=%d spills=%d faults=%d errors=%d",
			ts.HotPaths, ts.ColdPaths, ts.Spills, ts.Faults, ts.Errors)
	}
	if err := srv.Close(); err != nil {
		log.Printf("predserverd: WARNING: closing store: %v", err)
	}
	fmt.Println("predserverd: shut down cleanly")
}
