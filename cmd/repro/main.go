// Command repro regenerates every figure and table of the paper's
// evaluation from the datasets cmd/ronsim writes. It only reads them: a
// missing or partial (interrupted) dataset is refused with the ronsim
// command that writes it.
//
// Usage:
//
//	repro [-d1 data/d1-seed1.json.gz] [-d2 data/d2-seed1.json.gz]
//	      [-cc data/cc-seed1.json.gz] [-seed 1] [-only fig2,fig19]
//	      [-full] [-csv dir]
//
// -full says the datasets came from `ronsim -full`: it selects Fig. 11's
// checkpoints and Fig. 23's interval labels for the paper's scale.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/testbed"
	"repro/internal/traceio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro: ")

	seed := flag.Int64("seed", 1, "seed of the datasets, for their default file names")
	d1Path := flag.String("d1", "", "primary dataset path (default data/d1-seed<seed>.json.gz)")
	d2Path := flag.String("d2", "", "second dataset path (default data/d2-seed<seed>.json.gz)")
	ccPath := flag.String("cc", "", "scenario-matrix dataset path for ext-cc (default data/cc-seed<seed>.json.gz)")
	only := flag.String("only", "", "comma-separated experiment IDs to run (e.g. fig2,fig19)")
	full := flag.Bool("full", false, "the datasets came from ronsim -full (the paper's scale)")
	csvDir := flag.String("csv", "", "also export each experiment's tables/series as CSV into this directory")
	flag.Parse()

	if *d1Path == "" {
		*d1Path = fmt.Sprintf("data/d1-seed%d.json.gz", *seed)
	}
	if *d2Path == "" {
		*d2Path = fmt.Sprintf("data/d2-seed%d.json.gz", *seed)
	}
	if *ccPath == "" {
		*ccPath = fmt.Sprintf("data/cc-seed%d.json.gz", *seed)
	}

	cfg1 := testbed.DefaultScaled(*seed)
	cfg2 := testbed.SecondSet(*seed, !*full)
	scale := ""
	if *full {
		cfg1 = testbed.PaperScale(*seed)
		scale = " -full"
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }

	emit := func(res experiments.Result) {
		if !selected(res.ID) {
			return
		}
		res.Format(os.Stdout)
		if *csvDir != "" {
			if err := experiments.WriteCSV(*csvDir, res); err != nil {
				log.Fatalf("csv: %v", err)
			}
		}
	}
	load := func(name, path, flags string) *testbed.Dataset {
		start := time.Now()
		ds, err := loadDataset(path, fmt.Sprintf("ronsim -seed %d%s", *seed, flags))
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		log.Printf("%s: %d traces / %d epochs (%v)", name, len(ds.Traces), ds.Epochs(), time.Since(start).Round(time.Second))
		return ds
	}

	// Every experiment except ext-cc and fig11 reads the primary dataset;
	// when the selection is only those, skip d1 entirely so CI's scenario
	// gate never needs the primary campaign.
	needD1 := len(want) == 0
	for id := range want {
		if id != "ext-cc" && id != "fig11" {
			needD1 = true
		}
	}
	if needD1 {
		ds1 := load("dataset 1", *d1Path, scale)
		// The base transfer interval (for Fig 23's axis labels) follows
		// from the epoch structure; the paper's is ~3 min.
		for _, res := range experiments.All(ds1, epochMinutes(cfg1)) {
			emit(res)
		}
		for _, res := range experiments.Extensions(ds1) {
			emit(res)
		}
	}

	if selected("ext-cc") {
		emit(experiments.ExtCC(load("scenario dataset", *ccPath, " -scenarios")))
	}

	if selected("fig11") {
		ds2 := load("dataset 2", *d2Path, " -second"+scale)
		emit(experiments.Fig11(ds2, cfg2.Checkpoints, cfg2.TransferSec))
	}
}

// loadDataset reads the dataset at path. repro never collects: a missing
// file, or one an interrupted campaign declared partial, is refused with
// the ronsim command (writer, plus -out) that writes it.
func loadDataset(path, writer string) (*testbed.Dataset, error) {
	ds, err := traceio.Load(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil, fmt.Errorf("%s does not exist; write it with: %s -out %s", path, writer, path)
	case errors.Is(err, traceio.ErrPartial):
		return nil, fmt.Errorf("%s is a partial dataset (interrupted campaign); rewrite it with: %s -out %s", path, writer, path)
	}
	return ds, err
}

// epochMinutes is the length of one Fig.-1 epoch under cfg, in minutes:
// the phases a campaign runs with (RunConfig.Defaults), plus ~15 s for
// pathload on average.
func epochMinutes(cfg testbed.RunConfig) float64 {
	cfg = cfg.Defaults()
	small := 0.0
	if cfg.SmallWindowBytes > 0 {
		small = cfg.SmallTransferSec
	}
	return (15 + cfg.PingDuration + cfg.TransferSec + small + cfg.EpochGap) / 60
}
