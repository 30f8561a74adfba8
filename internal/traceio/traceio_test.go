package traceio_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/testbed"
	"repro/internal/traceio"
)

func sampleDataset() *testbed.Dataset {
	return &testbed.Dataset{
		Label: "test",
		Traces: []testbed.Trace{
			{
				Path: "p0", Class: "us", Index: 0,
				Records: []testbed.EpochRecord{
					{
						Path: "p0", Class: "us", Epoch: 0,
						AvailBw: 5e6, PreRTT: 0.05, PreLoss: 0.01,
						Throughput: 3e6, FlowRTT: 0.06, FlowLoss: 0.02,
						SmallThroughput: 1e6, SmallWindowBytes: 20480,
						Checkpoints: []float64{1e6, 2e6},
					},
					{Path: "p0", Class: "us", Epoch: 1, Throughput: 4e6},
				},
			},
			{Path: "p1", Class: "dsl", Index: 0, Records: []testbed.EpochRecord{
				{Path: "p1", Class: "dsl", Throughput: 1e6},
			}},
		},
	}
}

// saveStream writes ds to path through a Writer fed every trace, so the
// target is replaced atomically or not at all.
func saveStream(path string, ds *testbed.Dataset) error {
	w, err := traceio.NewWriter(path, ds.Label)
	if err != nil {
		return err
	}
	for _, tr := range ds.Traces {
		if err := w.WriteTrace(tr); err != nil {
			w.Abort()
			return err
		}
	}
	return w.Close()
}

func TestSaveLoadRoundTripJSON(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "ds.json")
	ds := sampleDataset()
	if err := saveStream(file, ds); err != nil {
		t.Fatal(err)
	}
	got, err := traceio.Load(file)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, got) {
		t.Error("round trip mismatch")
	}
}

func TestSaveLoadRoundTripGzip(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "ds.json.gz")
	ds := sampleDataset()
	if err := saveStream(file, ds); err != nil {
		t.Fatal(err)
	}
	got, err := traceio.Load(file)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, got) {
		t.Error("gzip round trip mismatch")
	}
}

func TestSaveCreatesParentDirs(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "a", "b", "ds.json")
	if err := saveStream(file, sampleDataset()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(file); err != nil {
		t.Error(err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := traceio.Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestLoadCorruptFile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(file, []byte("{not json"), 0o644)
	if _, err := traceio.Load(file); err == nil || !strings.Contains(err.Error(), traceio.StreamFormat) {
		t.Errorf("loading corrupt JSON: err = %v, want one naming %q", err, traceio.StreamFormat)
	}
	gz := filepath.Join(t.TempDir(), "bad.json.gz")
	os.WriteFile(gz, []byte("not gzip"), 0o644)
	if _, err := traceio.Load(gz); err == nil {
		t.Error("loading corrupt gzip should fail")
	}
}

func TestDatasetAccessors(t *testing.T) {
	ds := sampleDataset()
	names := ds.PathNames()
	if len(names) != 2 || names[0] != "p0" || names[1] != "p1" {
		t.Errorf("PathNames = %v", names)
	}
	if got := len(ds.TracesForPath("p0")); got != 1 {
		t.Errorf("TracesForPath(p0) = %d traces", got)
	}
	if ds.Epochs() != 3 {
		t.Errorf("Epochs = %d, want 3", ds.Epochs())
	}
	if got := len(ds.AllRecords()); got != 3 {
		t.Errorf("AllRecords = %d", got)
	}
	tr := ds.Traces[0]
	if th := tr.Throughputs(); len(th) != 2 || th[0] != 3e6 {
		t.Errorf("Throughputs = %v", th)
	}
	if th := tr.SmallThroughputs(); th[0] != 1e6 {
		t.Errorf("SmallThroughputs = %v", th)
	}
}
