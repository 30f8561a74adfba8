package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/testbed"
	"repro/internal/traceio"
)

var update = flag.Bool("update", false, "rewrite results/*-seed1.txt from the committed datasets")

// TestResultsGolden re-runs the reproduction on the committed seed-1
// datasets and diffs it against the archived output in results/, so a
// change to the simulator's analysis, the experiments or the predictors
// that moves any printed number fails here and names the line. It is what
// `repro -seed 1` prints, split the way results/ archives it:
// figures-seed1.txt is every experiment except ext-cc, and ext-cc-seed1.txt
// is the scenario matrix.
//
// Re-record with: go test ./cmd/repro -run TestResultsGolden -update
func TestResultsGolden(t *testing.T) {
	load := func(name string) *testbed.Dataset {
		t.Helper()
		ds, err := traceio.Load(filepath.Join("..", "..", "data", name))
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	d1, d2, cc := load("d1-seed1.json.gz"), load("d2-seed1.json.gz"), load("cc-seed1.json.gz")

	var figures, ext bytes.Buffer
	for _, res := range experiments.All(d1, epochMinutes(testbed.DefaultScaled(1))) {
		res.Format(&figures)
	}
	for _, res := range experiments.Extensions(d1) {
		res.Format(&figures)
	}
	cfg2 := testbed.SecondSet(1, true)
	experiments.Fig11(d2, cfg2.Checkpoints, cfg2.TransferSec).Format(&figures)
	experiments.ExtCC(cc).Format(&ext)

	for name, got := range map[string][]byte{
		"figures-seed1.txt": figures.Bytes(),
		"ext-cc-seed1.txt":  ext.Bytes(),
	} {
		file := filepath.Join("..", "..", "results", name)
		if *update {
			if err := os.WriteFile(file, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Errorf("%s: line %d differs\ngot:  %s\nwant: %s", name, i+1, gl[i], wl[i])
					break
				}
			}
			if len(gl) != len(wl) {
				t.Errorf("%s: got %d lines, want %d", name, len(gl), len(wl))
			}
		}
	}
}

// TestEpochMinutes pins Fig. 23's interval label: at the paper's scale an
// epoch is 15 s of pathload, 60 s of ping, the 50 s transfer, the 50 s
// window-limited transfer and a 20 s gap.
func TestEpochMinutes(t *testing.T) {
	if got := epochMinutes(testbed.PaperScale(1)); got != 3.25 {
		t.Errorf("epochMinutes(PaperScale) = %v, want 3.25", got)
	}
	if got, want := epochMinutes(testbed.DefaultScaled(1)), 113.0/60; got != want {
		t.Errorf("epochMinutes(DefaultScaled) = %v, want %v", got, want)
	}
}

// TestLoadDatasetRefuses checks that repro only reads: a missing or
// declared-partial dataset is refused with an error naming the ronsim
// command that writes it, and nothing is written.
func TestLoadDatasetRefuses(t *testing.T) {
	dir := t.TempDir()
	const writer = "ronsim -seed 3 -second"

	missing := filepath.Join(dir, "d2-seed3.json.gz")
	if _, err := loadDataset(missing, writer); err == nil || !strings.Contains(err.Error(), writer+" -out "+missing) {
		t.Errorf("missing dataset: err = %v, want one naming %q", err, writer)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("refusing a missing dataset wrote %d files", len(entries))
	}

	partial := filepath.Join(dir, "partial.json.gz")
	w, err := traceio.NewWriter(partial, "seed3")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTrace(testbed.Trace{Path: "p0", Records: []testbed.EpochRecord{{Throughput: 1e6}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.ClosePartial(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(partial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadDataset(partial, writer); err == nil || !strings.Contains(err.Error(), writer) {
		t.Errorf("partial dataset: err = %v, want one naming %q", err, writer)
	}
	after, err := os.ReadFile(partial)
	if err != nil || !bytes.Equal(before, after) {
		t.Errorf("refusing a partial dataset rewrote it (err %v)", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("refusing a partial dataset left %d files, want 1", len(entries))
	}
}
