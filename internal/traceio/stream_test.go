package traceio_test

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/testbed"
	"repro/internal/traceio"
)

// TestStreamRoundTrip proves Writer → Load and Writer → Reader reproduce
// the dataset exactly, compressed and not.
func TestStreamRoundTrip(t *testing.T) {
	for _, name := range []string{"ds.json", "ds.json.gz"} {
		t.Run(name, func(t *testing.T) {
			file := filepath.Join(t.TempDir(), name)
			ds := sampleDataset()
			w, err := traceio.NewWriter(file, ds.Label)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range ds.Traces {
				if err := w.WriteTrace(tr); err != nil {
					t.Fatal(err)
				}
			}
			if traces, epochs := w.Counts(); traces != 2 || epochs != 3 {
				t.Fatalf("counts = %d traces/%d epochs, want 2/3", traces, epochs)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			got, err := traceio.Load(file)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ds, got) {
				t.Error("Load round trip mismatch")
			}

			r, err := traceio.NewReader(file)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var traces []testbed.Trace
			for {
				tr, err := r.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				traces = append(traces, tr)
			}
			// io.EOF means the trailer was there, complete, and its counts
			// matched what was read.
			if !reflect.DeepEqual(ds.Traces, traces) {
				t.Error("Reader round trip mismatch")
			}
		})
	}
}

// TestStreamPartial: ClosePartial yields a readable file that Load and
// Reader both flag with ErrPartial, alongside the decoded prefix.
func TestStreamPartial(t *testing.T) {
	file := filepath.Join(t.TempDir(), "partial.json")
	ds := sampleDataset()
	w, err := traceio.NewWriter(file, ds.Label)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTrace(ds.Traces[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.ClosePartial(); err != nil {
		t.Fatal(err)
	}

	got, err := traceio.Load(file)
	if !errors.Is(err, traceio.ErrPartial) {
		t.Fatalf("Load err = %v, want ErrPartial", err)
	}
	if len(got.Traces) != 1 || !reflect.DeepEqual(got.Traces[0], ds.Traces[0]) {
		t.Error("partial load should still return the decoded prefix")
	}

	r, err := traceio.NewReader(file)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, traceio.ErrPartial) {
		t.Fatalf("Next err = %v, want ErrPartial", err)
	}
}

// TestStreamTruncated: a stream cut before its trailer is reported as
// ErrTruncated, and one whose trailer counts disagree is rejected too.
func TestStreamTruncated(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "full.json")
	if err := saveStream(file, sampleDataset()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")

	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, []byte(strings.Join(lines[:len(lines)-2], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := traceio.Load(torn); !errors.Is(err, traceio.ErrTruncated) {
		t.Errorf("torn Load err = %v, want ErrTruncated", err)
	}

	// Drop one epoch line but keep the trailer: counts disagree.
	short := filepath.Join(dir, "short.json")
	var kept []string
	dropped := false
	for _, ln := range lines {
		if !dropped && strings.HasPrefix(ln, `{"epoch":`) {
			dropped = true
			continue
		}
		kept = append(kept, ln)
	}
	if !dropped {
		t.Fatal("no epoch line found to drop")
	}
	if err := os.WriteFile(short, []byte(strings.Join(kept, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = traceio.Load(short)
	if err == nil || !strings.Contains(err.Error(), "count mismatch") {
		t.Errorf("short Load err = %v, want count mismatch", err)
	}
}

// TestSaveAtomicUnderFault: with a fault injected at the write seam,
// both saveStream and Writer.Close must fail without disturbing the
// previously saved dataset, and must leave no temp litter behind.
func TestSaveAtomicUnderFault(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "ds.json")
	ds := sampleDataset()
	if err := saveStream(file, ds); err != nil {
		t.Fatal(err)
	}

	errInjected := errors.New("injected fault")
	traceio.SetFaults(func(site string) error {
		if site == traceio.SiteWrite {
			return errInjected
		}
		return nil
	})
	defer traceio.SetFaults(nil)

	mutated := sampleDataset()
	mutated.Label = "must-not-land"
	if err := saveStream(file, mutated); !errors.Is(err, errInjected) {
		t.Fatalf("saveStream under fault err = %v, want the injected fault", err)
	}

	w, err := traceio.NewWriter(file, mutated.Label)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTrace(mutated.Traces[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Writer.Close under fault err = %v, want the injected fault", err)
	}

	got, err := traceio.Load(file)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, got) {
		t.Error("failed write clobbered the previous dataset")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "ds.json" {
			t.Errorf("leftover file %q after failed writes", e.Name())
		}
	}
}

// TestWriterAbort discards the temp file and leaves the target alone.
func TestWriterAbort(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "ds.json")
	if err := saveStream(file, sampleDataset()); err != nil {
		t.Fatal(err)
	}
	w, err := traceio.NewWriter(file, "abandoned")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTrace(sampleDataset().Traces[0]); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if err := w.Close(); err == nil {
		t.Error("Close after Abort should error")
	}
	got, err := traceio.Load(file)
	if err != nil || got.Label != "test" {
		t.Errorf("Abort disturbed the target (label %q, err %v)", got.Label, err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("Abort left temp litter: %v", entries)
	}
}

// TestReaderRejectsLegacy: the single-document form older builds wrote is
// no longer readable; NewReader and Load must say which format they
// expect instead of returning an empty dataset.
func TestReaderRejectsLegacy(t *testing.T) {
	file := filepath.Join(t.TempDir(), "legacy.json")
	doc, err := json.Marshal(sampleDataset())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := traceio.NewReader(file); err == nil || !strings.Contains(err.Error(), traceio.StreamFormat) {
		t.Errorf("NewReader on a legacy document: err = %v, want one naming %q", err, traceio.StreamFormat)
	}
	if _, err := traceio.Load(file); err == nil || !strings.Contains(err.Error(), traceio.StreamFormat) {
		t.Errorf("Load on a legacy document: err = %v, want one naming %q", err, traceio.StreamFormat)
	}
}

// TestCommittedDatasetsAreStreams: every dataset committed under data/ is
// in the one format the reader accepts and ends in a complete (counted,
// non-partial) trailer — the repro pipeline never re-collects them.
func TestCommittedDatasetsAreStreams(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "data", "*.json.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed datasets found under data/")
	}
	for _, file := range files {
		r, err := traceio.NewReader(file)
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		ds, err := r.ReadAll()
		r.Close()
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		// A nil error means a complete trailer whose counts matched.
		if len(ds.Traces) == 0 {
			t.Errorf("%s: empty dataset", file)
		}
	}
}
