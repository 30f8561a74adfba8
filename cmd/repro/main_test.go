package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
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
// figures-seed1.txt is every experiment except ext-cc, ext-cc-seed1.txt is
// the scenario matrix, and ext-zoo-seed1.txt repeats the ext-zoo section.
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

	var figures, zoo, ext bytes.Buffer
	for _, res := range experiments.All(d1, epochMinutes(testbed.DefaultScaled(1))) {
		res.Format(&figures)
	}
	for _, res := range experiments.Extensions(d1) {
		res.Format(&figures)
		if res.ID == "ext-zoo" {
			res.Format(&zoo)
		}
	}
	cfg2 := testbed.SecondSet(1, true)
	experiments.Fig11(d2, cfg2.Checkpoints, cfg2.TransferSec).Format(&figures)
	experiments.ExtCC(cc).Format(&ext)

	for name, got := range map[string][]byte{
		"figures-seed1.txt": figures.Bytes(),
		"ext-zoo-seed1.txt": zoo.Bytes(),
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
