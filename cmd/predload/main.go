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
// Shed 429s, 5xx blips and node restarts are ridden out by the retrying
// cluster client; the report's "resilience:" line counts the retries
// (shed ones among them) and failovers a run absorbed.
//
// Examples:
//
//	predload -addr http://127.0.0.1:8355 -paths 120 -epochs 150
//	predload -dataset data/d1-seed1.json.gz -workers 32
//	predload -cluster 127.0.0.1:8355,127.0.0.1:8356 -batch
//
// With -cluster, each path's requests go to the node that owns it under
// rendezvous hashing; per-path state lives on exactly one node, so the
// digest matches a single-node run over the same series. -batch folds each
// epoch's observations into one /v1/observe-batch request per node.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

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

		startEpoch = flag.Int("start-epoch", 0, "replay only epoch indices >= this (phase-split runs around a resize)")
		pace       = flag.Duration("pace", 0, "pause per worker between epoch rounds, stretching the replay so restarts land mid-load")
	)
	flag.Parse()

	// -cluster routes per path across nodes; without it the one node is
	// -addr.
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
