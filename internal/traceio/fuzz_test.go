package traceio_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/testbed"
	"repro/internal/traceio"
)

// readFile reads a dataset file whole, as Load does, but keeps a declared
// partial stream's prefix apart from other errors.
func readFile(path string) (ds *testbed.Dataset, partial bool, err error) {
	r, err := traceio.NewReader(path)
	if err != nil {
		return nil, false, err
	}
	defer r.Close()
	ds, err = r.ReadAll()
	if errors.Is(err, traceio.ErrPartial) {
		return ds, true, nil
	}
	return ds, false, err
}

// emptyAsNil drops empty checkpoint lists: the stream omits them, so an
// empty list and an absent one are the same dataset.
func emptyAsNil(ds *testbed.Dataset) {
	for i := range ds.Traces {
		for j := range ds.Traces[i].Records {
			if rec := &ds.Traces[i].Records[j]; len(rec.Checkpoints) == 0 {
				rec.Checkpoints = nil
			}
		}
	}
}

// FuzzTraceReader holds the dataset reader to two properties on any
// bytes: it never panics, and what it accepts — a complete stream, or a
// declared-partial one's prefix — a Writer writes back to the same
// traces, the same label and the same partial flag. The committed corpus
// in testdata/fuzz holds a valid stream, one without its trailer and one
// with a partial trailer.
func FuzzTraceReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ds, partial, err := readFile(in)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.json")
		w, err := traceio.NewWriter(out, ds.Label)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range ds.Traces {
			if err := w.WriteTrace(tr); err != nil {
				t.Fatal(err)
			}
		}
		if partial {
			err = w.ClosePartial()
		} else {
			err = w.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		again, againPartial, err := readFile(out)
		if err != nil {
			t.Fatalf("re-reading a rewritten stream: %v", err)
		}
		emptyAsNil(ds)
		if again.Label != ds.Label || againPartial != partial || !reflect.DeepEqual(again.Traces, ds.Traces) {
			t.Fatalf("round trip changed the dataset:\n read    %q partial=%v %+v\n re-read %q partial=%v %+v",
				ds.Label, partial, ds.Traces, again.Label, againPartial, again.Traces)
		}
	})
}
