// Command ronsim collects a measurement dataset on the simulated RON-style
// testbed and writes it to disk for later analysis by cmd/repro.
//
// Usage:
//
//	ronsim [-out data/d1.json.gz] [-seed 1] [-full] [-second]
//	       [-scenarios] [-per-scenario N]
//	       [-workers N] [-progress bar|jsonl|off]
//	       [-paths N] [-traces N] [-epochs N]
//	       [-obs-addr :6060] [-obs-dump dir]
//
// By default a scaled-down campaign runs (12 paths × 2 traces × 40 epochs);
// -full restores the paper's 35 × 7 × 150 scale (slow). -second collects
// the Mar-2006-style second dataset with 120 s checkpointed transfers.
// -scenarios collects the CC × link scenario matrix (reno/cubic/bbr
// senders over droptail/randomdrop/cellular/rwnd-limited bottlenecks,
// -per-scenario paths per cell) for the ext-cc experiment.
// -paths/-traces/-epochs shrink (or grow) any scale — CI uses them to make
// a seconds-long run that still exercises the whole pipeline.
//
// -obs-addr serves live observability endpoints (/metrics Prometheus
// exposition, /debug/pprof/ profiles, /debug/trace span timeline) while
// the campaign runs; -obs-dump writes the same telemetry to files
// (trace.json, trace.txt, metrics.prom) when it finishes. Either flag
// enables instrumentation; with neither, the campaign runs untraced.
//
// Collection runs on the campaign runner: live progress (trace counts,
// epoch rate, ETA) goes to stderr, -progress=jsonl emits machine-readable
// JSON lines instead, and a trace that faults is reported and left out
// rather than aborting the campaign (it is not rerun: its seed would
// replay the same fault). Interrupting with Ctrl-C stops
// at the next epoch boundaries and saves the completed traces as a
// partial dataset.
//
// Traces stream to disk as they complete (record-per-epoch inside the
// optionally-gzipped output), so memory use is constant even for
// 10k-path campaigns.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/testbed"
	"repro/internal/traceio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ronsim: ")

	out := flag.String("out", "", "output file (.json or .json.gz); default depends on -second")
	seed := flag.Int64("seed", 1, "campaign seed")
	full := flag.Bool("full", false, "run at the paper's full scale (35x7x150; slow)")
	second := flag.Bool("second", false, "collect the second (120s-transfer) dataset for Fig 11")
	scenarios := flag.Bool("scenarios", false, "collect the CC × link scenario-matrix dataset for ext-cc")
	perScenario := flag.Int("per-scenario", 0, "scenario mode: paths per (sender × link) cell (0 = 1)")
	workers := flag.Int("workers", 0, "parallel trace workers (0 = GOMAXPROCS)")
	progress := flag.String("progress", "bar", "progress reporting: bar | jsonl | off")
	paths := flag.Int("paths", 0, "override the catalog's path count (0 = per-scale default)")
	traces := flag.Int("traces", 0, "override traces per path (0 = per-scale default)")
	epochs := flag.Int("epochs", 0, "override epochs per trace (0 = per-scale default)")
	obsAddr := flag.String("obs-addr", "", "serve live /metrics + /debug/pprof/ + /debug/trace on this address during the run")
	obsDump := flag.String("obs-dump", "", "write trace.json/trace.txt/metrics.prom artifacts to this directory after the run")
	flag.Parse()

	var cfg testbed.RunConfig
	name := "d1"
	switch {
	case *scenarios:
		cfg = testbed.ScenarioScaled(*seed, testbed.ScenarioConfig{PathsPerScenario: *perScenario})
		name = "cc"
	case *second:
		cfg = testbed.SecondSet(*seed, !*full)
		name = "d2"
	case *full:
		cfg = testbed.PaperScale(*seed)
	default:
		cfg = testbed.DefaultScaled(*seed)
	}
	cfg.Parallelism = *workers
	if *paths > 0 && !*scenarios {
		cfg.Catalog.NumPaths = *paths
		// Keep the special-class counts inside the shrunken catalog.
		cfg.Catalog.NumDSL = min(cfg.Catalog.NumDSL, *paths/3)
		cfg.Catalog.NumTrans = min(cfg.Catalog.NumTrans, *paths/3)
		cfg.Catalog.NumKorea = min(cfg.Catalog.NumKorea, *paths/3)
	}
	if *traces > 0 {
		cfg.TracesPerPath = *traces
	}
	if *epochs > 0 {
		cfg.EpochsPerTrace = *epochs
	}
	if *out == "" {
		*out = fmt.Sprintf("data/%s-seed%d.json.gz", name, *seed)
	}

	prog, err := observerFor(*progress)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Observer = prog

	var telemetry *obs.Obs
	if *obsAddr != "" || *obsDump != "" {
		telemetry = obs.New(obs.DefaultSpanCapacity)
		cfg.Obs = telemetry
	}

	// Ctrl-C / SIGTERM cancels the campaign; traces abort at their next
	// epoch boundary and whatever completed is still saved below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *obsAddr != "" {
		go func() {
			if err := telemetry.Serve(ctx, *obsAddr); err != nil {
				log.Printf("obs endpoint: %v", err)
			}
		}()
		log.Printf("observability on http://%s%s", *obsAddr, obs.PathMetrics)
	}

	start := time.Now()
	partial := collectStreaming(ctx, cfg, *out, start)
	dumpObs(telemetry, *obsDump)
	if partial {
		os.Exit(1)
	}
}

// collectStreaming runs the campaign with each completed trace flushed
// straight to a traceio stream writer, so memory stays constant however
// large the campaign is. An interrupted campaign still lands on disk —
// atomically, with the trailer's partial flag set so readers know — and
// the function reports whether that happened. Unsaveable runs exit.
func collectStreaming(ctx context.Context, cfg testbed.RunConfig, out string, start time.Time) (partial bool) {
	w, err := traceio.NewWriter(out, cfg.DatasetLabel())
	if err != nil {
		log.Printf("save: %v", err)
		os.Exit(1)
	}
	var writeErr error
	err = testbed.CollectStream(ctx, cfg, func(tr testbed.Trace) error {
		if err := w.WriteTrace(tr); err != nil {
			writeErr = err
			return err
		}
		return nil
	})
	traces, epochs := w.Counts()
	switch {
	case writeErr != nil:
		w.Abort()
		log.Printf("save: %v", writeErr)
		os.Exit(1)
	case errors.Is(err, context.Canceled):
		partial = true
		log.Printf("interrupted; keeping %d completed traces", traces)
	case err != nil:
		// Trace faults: the campaign carried on without them.
		log.Printf("completed with failed traces: %v", err)
	}
	log.Printf("collected %d traces / %d epochs in %v", traces, epochs, time.Since(start).Round(time.Second))
	if traces == 0 {
		w.Abort()
		log.Print("nothing to save")
		os.Exit(1)
	}
	closeErr := w.Close
	if partial {
		closeErr = w.ClosePartial
	}
	if err := closeErr(); err != nil {
		log.Printf("save: %v", err)
		os.Exit(1)
	}
	log.Printf("wrote %s (streamed)", out)
	return partial
}

// dumpObs writes the observability artifacts when a dump dir was given.
func dumpObs(telemetry *obs.Obs, dir string) {
	if dir == "" {
		return
	}
	if err := telemetry.WriteFiles(dir); err != nil {
		log.Printf("obs dump: %v", err)
	} else {
		log.Printf("wrote observability artifacts to %s/", dir)
	}
}

// observerFor maps the -progress flag to a campaign observer.
func observerFor(mode string) (campaign.Observer, error) {
	switch mode {
	case "bar":
		return campaign.NewProgress(os.Stderr), nil
	case "jsonl":
		return campaign.NewJSONL(os.Stderr), nil
	case "off", "none", "":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown -progress mode %q (want bar, jsonl or off)", mode)
	}
}
