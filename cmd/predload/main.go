// Command predload is the load generator for predserverd: it replays
// per-path throughput traces — either a dataset written by cmd/ronsim or
// fast synthetic series with the paper's level-shift/outlier structure —
// against a running daemon, concurrently but strictly in order per path,
// and reports achieved request rate, the accuracy of the selected family's
// forecasts (paper Eq. 4/5), and a determinism digest over every
// /v1/predict response body.
//
// Two runs with the same flags against fresh daemons must print the same
// digest: that is the service's determinism contract, checkable from the
// command line.
//
// With -chaos, predload additionally injects client-side faults from a
// seeded plan — predict requests it aborts mid-flight, slowloris probes
// that stall inside the request headers, and forced-panic probes
// (X-Chaos-Panic) that a -chaos daemon converts into recovered 500s — and
// reports the daemon's resilience counters afterwards. Chaos traffic is
// read-only, so the digest over the fault-free replay must match a
// no-chaos run with the same seed.
//
// Examples:
//
//	predload -addr http://127.0.0.1:8355 -paths 120 -epochs 150
//	predload -dataset data/d1-seed1.json.gz -workers 32
//	predload -chaos -chaos-seed 7 # fault-injected run; digest must still match
//	predload -cluster 127.0.0.1:8355,127.0.0.1:8356 -batch
//
// With -cluster, each path's requests go to the node that owns it under
// rendezvous hashing; per-path state lives on exactly one node, so the
// digest matches a single-node run over the same series. -batch folds each
// epoch's observations into one /v1/observe-batch request per node.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/predict"
	"repro/internal/predsvc"
	"repro/internal/testbed"
	"repro/internal/traceio"
)

func main() {
	var (
		addr    = flag.String("addr", "http://127.0.0.1:8355", "base URL of predserverd")
		paths   = flag.Int("paths", 120, "synthetic paths to generate")
		epochs  = flag.Int("epochs", 150, "epochs per synthetic path")
		seed    = flag.Int64("seed", 1, "seed for synthetic series")
		workers = flag.Int("workers", 16, "concurrent client goroutines")
		dataset = flag.String("dataset", "", "replay a dataset written by ronsim instead of synthetic series")

		clusterList = flag.String("cluster", "", "comma-separated base URLs of a multi-node deployment; each path is routed to its rendezvous-hash owner (overrides -addr)")
		batchMode   = flag.Bool("batch", false, "group each epoch's observations into /v1/observe-batch requests per node instead of one /v1/observe per path")

		chaosMode = flag.Bool("chaos", false, "inject client-side faults (aborted predicts, slowloris probes, forced-panic probes); digest covers only the fault-free replay")
		chaosSeed = flag.Int64("chaos-seed", 1, "fault-injection seed for -chaos")

		startEpoch = flag.Int("start-epoch", 0, "replay only epoch indices >= this (phase-split runs around a resize)")
		pace       = flag.Duration("pace", 0, "pause per worker between epoch rounds, stretching the replay so restarts land mid-load")
	)
	flag.Parse()

	// -cluster routes per path across nodes; without it the one node is
	// -addr. The reports afterwards are fetched from every node.
	var nodes []string
	for _, n := range strings.Split(*clusterList, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, normalizeURL(n))
		}
	}
	if len(nodes) == 0 {
		nodes = []string{normalizeURL(*addr)}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var series []predsvc.PathSeries
	switch {
	case *dataset != "":
		ds, err := traceio.Load(*dataset)
		if err != nil {
			log.Fatalf("predload: load %s: %v", *dataset, err)
		}
		series = seriesFromDataset(ds)
		log.Printf("predload: replaying %d traces from %s", len(series), *dataset)
	default:
		series = predsvc.SyntheticSeries(*paths, *epochs, *seed)
		log.Printf("predload: replaying %d synthetic paths × %d epochs", *paths, *epochs)
	}

	lcfg := predsvc.LoadConfig{
		Nodes:        nodes,
		BatchObserve: *batchMode,
		Workers:      *workers,
		StartEpoch:   *startEpoch,
		EpochPause:   *pace,
	}
	if len(nodes) > 1 {
		log.Printf("predload: routing paths across %d nodes by rendezvous hash", len(nodes))
	}
	if *chaosMode {
		lcfg.Chaos = &predsvc.ChaosConfig{Seed: *chaosSeed}
		log.Printf("predload: CHAOS MODE (seed %d): injecting client aborts, slowloris probes and panic probes", *chaosSeed)
	}
	rep, err := predsvc.Replay(ctx, lcfg, series)
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) && rep != nil:
		// Interrupted (Ctrl-C): the partial stats are still worth printing.
		log.Printf("predload: interrupted, reporting partial results")
	default:
		log.Fatalf("predload: %v", err)
	}
	fmt.Println(rep)
	if *chaosMode {
		for _, n := range nodes {
			reportServerResilience(ctx, n)
		}
	}
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

// normalizeURL accepts the same bare host:port the daemon's -addr takes.
func normalizeURL(s string) string {
	if !strings.Contains(s, "://") {
		return "http://" + s
	}
	return s
}

// fetchStats reads one node's /v1/stats. A wedged node gets 5 s, as in
// predctl, before the fetch gives up.
func fetchStats(ctx context.Context, base string) (predsvc.StatsResponse, error) {
	var st predsvc.StatsResponse
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("bad /v1/stats response: %w", err)
	}
	return st, nil
}

// reportServerResilience prints the daemon's resilience counters after a
// chaos run — the acceptance signal that the injected faults were absorbed
// (panics recovered, load shed, snapshot writes retried) without a crash.
func reportServerResilience(ctx context.Context, base string) {
	st, err := fetchStats(ctx, base)
	if err != nil {
		log.Printf("predload: could not fetch server stats after chaos run: %v", err)
		return
	}
	m := st.Metrics
	fmt.Printf("chaos: server panics_recovered=%d requests_shed=%d snapshot_failures=%d snapshot_retries=%d rejected_inputs=%d stale_predictions=%d\n",
		m.PanicsRecovered, m.RequestsShed, m.SnapshotFailures, m.SnapshotRetries, m.RejectedInputs, m.StalePredictions)
}

// seriesFromDataset converts a testbed-simulated dataset into replayable
// per-path series: each (path, trace) pair becomes one service path named
// "<path>#<trace>", with the pre-flow measurements of every epoch feeding
// the FB side, exactly as an online deployment would see them.
func seriesFromDataset(ds *testbed.Dataset) []predsvc.PathSeries {
	var out []predsvc.PathSeries
	for _, tr := range ds.Traces {
		s := predsvc.PathSeries{Path: fmt.Sprintf("%s#%d", tr.Path, tr.Index)}
		for _, rec := range tr.Records {
			s.Throughputs = append(s.Throughputs, rec.Throughput)
			s.Inputs = append(s.Inputs, predict.FBInputs{
				RTT:      rec.PreRTT,
				LossRate: rec.PreLoss,
				AvailBw:  rec.AvailBw,
			})
		}
		out = append(out, s)
	}
	return out
}
