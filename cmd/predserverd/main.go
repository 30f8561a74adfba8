// Command predserverd is the online throughput-prediction daemon: it
// serves the internal/predsvc HTTP JSON API (observe / measure / predict /
// stats, plus the observe-batch / predict-batch bulk endpoints) over a
// sharded, LRU-bounded path registry, with graceful shutdown on
// SIGINT/SIGTERM and optional periodic snapshots of registry state.
// With -spill-dir the registry becomes a two-tier store: sessions evicted
// from the in-memory hot tier are serialized to an append-only checksummed
// spill log and faulted back on access, so the daemon holds far more paths
// than -capacity at a bounded resident set.
//
// The serving path is hardened for imperfect conditions: header/read/idle
// timeouts guard against slow clients, handler panics are converted into
// 500s instead of crashes, load past -max-inflight is shed with 429 +
// Retry-After, snapshot writes are checksummed and retried with backoff,
// and a corrupt snapshot at boot is quarantined (the daemon starts empty)
// rather than fatal. -chaos enables seeded fault injection against those
// defenses: snapshot writes fail half the time, X-Chaos-Panic requests
// panic inside a handler, and ~10% of requests stall 5ms in-handler so a
// tight -max-inflight genuinely sheds. -chaos-handoff kills the first
// session handoff (export and import) mid-transfer to prove a retried
// rebalance converges.
//
// For cluster operation the daemon serves /healthz (process up) and
// /readyz (wants traffic) outside the load-shedding middleware; SIGTERM
// flips /readyz to 503 (optionally holding it there for -drain-delay),
// lets in-flight requests finish, then writes the final snapshot. The
// /v1/sessions/{export,import,drop} endpoints implement checksummed
// shard handoff; drive them with predctl rebalance.
//
// The listener also serves /metrics (Prometheus text exposition of every
// service counter, latency histogram and accuracy gauge), /debug/pprof/
// (standard Go profiles), and /debug/trace (recent request spans in Chrome
// trace_event format; /debug/trace.txt for the plain-text tree). These
// endpoints bypass the load-shedding middleware, so scrapes and profile
// grabs keep working exactly when the API is refusing traffic.
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

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/predsvc"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8355", "listen address")
		shards       = flag.Int("shards", 16, "registry shards (rounded up to a power of two)")
		capacity     = flag.Int("capacity", 4096, "maximum paths kept (LRU eviction beyond this)")
		errWindow    = flag.Int("err-window", 50, "rolling errors kept per predictor for RMSRE")
		maOrder      = flag.Int("ma", 10, "moving-average order")
		ewmaAlpha    = flag.Float64("ewma", 0.8, "EWMA weight α")
		hwAlpha      = flag.Float64("hw-alpha", 0.8, "Holt-Winters α")
		hwBeta       = flag.Float64("hw-beta", 0.2, "Holt-Winters β")
		noLSO        = flag.Bool("no-lso", false, "disable the level-shift/outlier wrapper")
		snapshotPath = flag.String("snapshot", "", "snapshot file (restored at startup, written periodically and at shutdown)")
		snapshotIvl  = flag.Duration("snapshot-interval", time.Minute, "interval between snapshots")
		spillDir     = flag.String("spill-dir", "", "directory for the two-tier store's spill log; paths evicted from the hot tier spill to disk instead of being dropped")

		staleAfter  = flag.Int("stale-after", 0, "observations since the last measurement before FB forecasts are flagged stale (0 = default 30, negative = never)")
		maxInflight = flag.Int("max-inflight", 0, "concurrent-request cap before shedding with 429 (0 = default 1024, negative = unlimited)")
		readHdrTO   = flag.Duration("read-header-timeout", 0, "slowloris guard on request headers (0 = default 5s, negative = off)")
		requestTO   = flag.Duration("request-timeout", 0, "per-request deadline (0 = default 15s, negative = off)")
		chaosMode   = flag.Bool("chaos", false, "seeded fault injection: snapshot writes fail ~50% of the time, X-Chaos-Panic requests panic in-handler")
		chaosSeed   = flag.Int64("chaos-seed", 1, "fault-injection seed for -chaos")
		chaosHand   = flag.Bool("chaos-handoff", false, "kill the first session handoff mid-transfer: the 6th exported record aborts the stream and the 6th imported record 500s, so only a retried pass can complete")
		drainDelay  = flag.Duration("drain-delay", 0, "extra time /readyz advertises draining before connections close on shutdown (lets cluster clients re-probe)")

		obsSpans = flag.Int("obs-spans", obs.DefaultSpanCapacity, "completed request spans retained for /debug/trace")
	)
	flag.Parse()

	cfg := predsvc.Config{
		Obs:      obs.New(*obsSpans),
		Shards:   *shards,
		Capacity: *capacity,
		Ensemble: predict.EnsembleConfig{
			ErrorWindow: *errWindow,
			MAOrder:     *maOrder,
			EWMAAlpha:   *ewmaAlpha,
			HWAlpha:     *hwAlpha,
			HWBeta:      *hwBeta,
			DisableLSO:  *noLSO,
			StaleAfter:  *staleAfter,
		},
		MaxInFlight:       *maxInflight,
		ReadHeaderTimeout: *readHdrTO,
		RequestTimeout:    *requestTO,
		SpillDir:          *spillDir,
		DrainDelay:        *drainDelay,
	}
	var faultRules []faultinject.Rule
	if *chaosMode {
		faultRules = append(faultRules,
			faultinject.Rule{Site: predsvc.SiteSnapshotWrite, Probability: 0.5},
			faultinject.Rule{Site: predsvc.SiteHandlerPanic, Every: 1},
			// Pure slowdown (no error): ~10% of requests stall in-handler
			// for 5ms while holding their in-flight slot, so a tight
			// -max-inflight actually overflows and sheds under load.
			faultinject.Rule{Site: predsvc.SiteHandlerDelay, Probability: 0.1, Delay: 5 * time.Millisecond},
		)
		log.Printf("predserverd: CHAOS MODE (seed %d): injecting snapshot write failures, handler panics and 5ms handler stalls", *chaosSeed)
	}
	if *chaosHand {
		// Deterministic mid-transfer kill for the resize gate: the first
		// handoff pass dies partway through both directions, and only an
		// idempotent retry (import is last-writer-wins) can finish the move.
		faultRules = append(faultRules,
			faultinject.Rule{Site: predsvc.SiteHandoffExport, Every: 1, After: 5, Times: 1, Err: fmt.Errorf("chaos: export stream killed mid-transfer")},
			faultinject.Rule{Site: predsvc.SiteHandoffImport, Every: 1, After: 5, Times: 1, Err: fmt.Errorf("chaos: import killed mid-batch")},
		)
		log.Printf("predserverd: CHAOS-HANDOFF (seed %d): first export aborts after 5 records, first import 500s after 5 records", *chaosSeed)
	}
	if len(faultRules) > 0 {
		cfg.Faults = faultinject.New(*chaosSeed, faultRules...)
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
	log.Printf("predserverd: observability on http://%s{%s,%s,%s}",
		ln.Addr(), obs.PathMetrics, obs.PathPprof, obs.PathTrace)

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
