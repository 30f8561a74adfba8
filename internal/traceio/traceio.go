// Package traceio persists measurement datasets (cmd/ronsim writes,
// cmd/repro reads) in one on-disk form, gzip-compressed when the file
// name ends in .gz: a record-per-epoch NDJSON stream (Writer/Reader) —
// a header line, one line per trace start, one line per epoch record,
// and a counting trailer line. A 10k-path campaign flushes each trace as
// it completes instead of materializing the whole dataset, so collection
// runs in bounded RSS; the trailer makes truncation and deliberate
// partial writes (an interrupted campaign) detectable.
//
// All writes are crash-safe: temp file, fsync, atomic rename — a failed
// or interrupted write never clobbers an existing dataset.
package traceio

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/testbed"
)

// StreamFormat identifies the streaming container; bump the suffix on
// incompatible changes. It is the value of the header line's "stream"
// field; a file whose first record does not carry it is rejected.
const StreamFormat = "tcppred-epochs/1"

// siteWrite is the fault site consulted before any dataset write reaches
// disk; a failure there makes Writer.Close fail after the temp file
// exists, proving the previous file survives.
const siteWrite = "traceio.write"

// faults is the package fault seam, nil outside tests (which set it
// through SetFaults in export_test.go).
var faults func(site string) error

func checkFault(site string) error {
	if faults == nil {
		return nil
	}
	return faults(site)
}

// ErrPartial marks a stream whose trailer declares it deliberately
// incomplete — an interrupted campaign that flushed what it had. Load
// and Reader surface it alongside the decoded prefix, so callers choose:
// a tool may proceed on the partial data, or refuse it as cmd/repro does
// rather than mistake it for the full campaign.
var ErrPartial = errors.New("traceio: partial dataset (interrupted campaign)")

// ErrTruncated marks a stream that ends without its trailer — a crashed
// writer or a torn copy, as opposed to a declared-partial one.
var ErrTruncated = errors.New("traceio: truncated stream (missing trailer)")

// syncDir fsyncs a directory so a just-renamed file's entry is durable.
// Filesystems that refuse to sync directories are tolerated: the rename
// itself was still atomic.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Stream record shapes. Every line is one small JSON object with exactly
// one of the keys below set; a reader dispatches on which.
type streamHeader struct {
	Stream string `json:"stream"` // StreamFormat; first line
	Label  string `json:"label"`
}

// traceStart is a Trace minus its records, which follow as epoch lines.
type traceStart struct {
	Path  string `json:"path"`
	Class string `json:"class"`
	Index int    `json:"index"`
}

// Trailer is the stream's final record: record counts for truncation
// detection, and the partial flag for deliberately incomplete writes.
type Trailer struct {
	Traces  int  `json:"traces"`
	Epochs  int  `json:"epochs"`
	Partial bool `json:"partial,omitempty"`
}

type streamLine struct {
	Stream  string               `json:"stream,omitempty"`
	Label   string               `json:"label,omitempty"`
	Trace   *traceStart          `json:"trace,omitempty"`
	Epoch   *testbed.EpochRecord `json:"epoch,omitempty"`
	Trailer *Trailer             `json:"trailer,omitempty"`
}

// Writer streams traces to a dataset file: header first, then per trace
// one trace line and its epoch lines, then a counting trailer on Close.
// Only the trace currently being written is in memory. The output goes
// to a temp file that is fsynced and atomically renamed over the target
// on Close (or ClosePartial); Abort discards it. Not goroutine-safe.
type Writer struct {
	path string
	tmp  string
	f    *os.File
	bw   *bufio.Writer
	zw   *gzip.Writer
	enc  *json.Encoder
	n    Trailer
	err  error
	done bool
}

// NewWriter creates the temp file (and parent directories) for path and
// writes the stream header. The target keeps its previous content until
// Close succeeds.
func NewWriter(path, label string) (*Writer, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	f, err := os.CreateTemp(filepath.Dir(path), ".traceio-*")
	if err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	w := &Writer{path: path, tmp: f.Name(), f: f, bw: bufio.NewWriterSize(f, 1<<16)}
	var out io.Writer = w.bw
	if filepath.Ext(path) == ".gz" {
		w.zw = gzip.NewWriter(w.bw)
		out = w.zw
	}
	w.enc = json.NewEncoder(out)
	if err := w.enc.Encode(streamHeader{Stream: StreamFormat, Label: label}); err != nil {
		w.Abort()
		return nil, fmt.Errorf("traceio: write %s: %w", path, err)
	}
	return w, nil
}

// WriteTrace appends one trace — a trace line followed by one line per
// epoch record. The first error sticks and is also returned from Close.
func (w *Writer) WriteTrace(tr testbed.Trace) error {
	if w.err != nil {
		return w.err
	}
	if w.done {
		return errors.New("traceio: write after Close")
	}
	start := traceStart{Path: tr.Path, Class: tr.Class, Index: tr.Index}
	if err := w.enc.Encode(streamLine{Trace: &start}); err != nil {
		w.err = fmt.Errorf("traceio: write %s: %w", w.path, err)
		return w.err
	}
	for i := range tr.Records {
		if err := w.enc.Encode(streamLine{Epoch: &tr.Records[i]}); err != nil {
			w.err = fmt.Errorf("traceio: write %s: %w", w.path, err)
			return w.err
		}
		w.n.Epochs++
	}
	w.n.Traces++
	return nil
}

// Counts reports how many traces and epochs have been written so far.
func (w *Writer) Counts() (traces, epochs int) { return w.n.Traces, w.n.Epochs }

// Close writes the trailer, syncs, and atomically renames the temp file
// over the target. On any error the temp file is removed and the target
// keeps its previous content.
func (w *Writer) Close() error { return w.finalize(false) }

// ClosePartial is Close with the trailer's partial flag set: the file
// is valid and readable, but declared incomplete — Load reports
// ErrPartial alongside the data.
func (w *Writer) ClosePartial() error { return w.finalize(true) }

func (w *Writer) finalize(partial bool) error {
	if w.done {
		return w.err
	}
	if w.err != nil {
		w.Abort()
		return w.err
	}
	w.done = true
	fail := func(err error) error {
		w.err = fmt.Errorf("traceio: write %s: %w", w.path, err)
		w.f.Close()
		os.Remove(w.tmp)
		return w.err
	}
	if err := checkFault(siteWrite); err != nil {
		return fail(err)
	}
	t := w.n
	t.Partial = partial
	if err := w.enc.Encode(streamLine{Trailer: &t}); err != nil {
		return fail(err)
	}
	if w.zw != nil {
		if err := w.zw.Close(); err != nil {
			return fail(err)
		}
	}
	if err := w.bw.Flush(); err != nil {
		return fail(err)
	}
	if err := w.f.Sync(); err != nil {
		return fail(err)
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		w.err = fmt.Errorf("traceio: write %s: %w", w.path, err)
		return w.err
	}
	if err := os.Rename(w.tmp, w.path); err != nil {
		os.Remove(w.tmp)
		w.err = fmt.Errorf("traceio: %w", err)
		return w.err
	}
	syncDir(filepath.Dir(w.path))
	return nil
}

// Abort discards the temp file without touching the target. Safe after
// errors and after Close (where it is a no-op).
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	if w.err == nil {
		w.err = errors.New("traceio: writer aborted")
	}
	w.f.Close()
	os.Remove(w.tmp)
}

// Reader streams traces back from a file in the streaming form. Next
// returns one assembled trace at a time, so a reader holds one trace in
// memory regardless of file size.
type Reader struct {
	f       *os.File
	zr      *gzip.Reader
	dec     *json.Decoder
	label   string
	cur     *testbed.Trace
	trailer *Trailer
	seen    Trailer // counts observed, checked against the trailer
	err     error
}

// NewReader opens a streaming dataset file and reads its header.
func NewReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	r := &Reader{f: f}
	var in io.Reader = f
	if filepath.Ext(path) == ".gz" {
		zr, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("traceio: %s: %w", path, err)
		}
		r.zr = zr
		in = zr
	}
	r.dec = json.NewDecoder(bufio.NewReaderSize(in, 1<<16))
	var h streamHeader
	if err := r.dec.Decode(&h); err != nil {
		r.Close()
		return nil, fmt.Errorf("traceio: decode %s: expected a %q stream header: %w", path, StreamFormat, err)
	}
	if h.Stream != StreamFormat {
		r.Close()
		return nil, fmt.Errorf("traceio: decode %s: expected a %q stream, found header %q", path, StreamFormat, h.Stream)
	}
	r.label = h.Label
	return r, nil
}

// Next returns the next trace. At end of stream it returns io.EOF for a
// complete file, ErrPartial for a declared-partial one, and ErrTruncated
// (or a count-mismatch error) for a torn one.
func (r *Reader) Next() (testbed.Trace, error) {
	if r.err != nil {
		return testbed.Trace{}, r.err
	}
	for {
		var line streamLine
		if err := r.dec.Decode(&line); err != nil {
			if errors.Is(err, io.EOF) {
				return r.finish()
			}
			r.err = fmt.Errorf("traceio: decode stream: %w", err)
			return testbed.Trace{}, r.err
		}
		switch {
		case line.Trace != nil:
			prev := r.cur
			r.cur = &testbed.Trace{Path: line.Trace.Path, Class: line.Trace.Class, Index: line.Trace.Index}
			r.seen.Traces++
			if prev != nil {
				return *prev, nil
			}
		case line.Epoch != nil:
			if r.cur == nil {
				r.err = errors.New("traceio: epoch record before any trace record")
				return testbed.Trace{}, r.err
			}
			r.cur.Records = append(r.cur.Records, *line.Epoch)
			r.seen.Epochs++
		case line.Trailer != nil:
			r.trailer = line.Trailer
		default:
			r.err = errors.New("traceio: unrecognized stream record")
			return testbed.Trace{}, r.err
		}
	}
}

// finish validates the trailer at end of stream and flushes the last
// pending trace before reporting the terminal error.
func (r *Reader) finish() (testbed.Trace, error) {
	if r.trailer == nil {
		r.err = ErrTruncated
		return testbed.Trace{}, r.err
	}
	if r.trailer.Traces != r.seen.Traces || r.trailer.Epochs != r.seen.Epochs {
		r.err = fmt.Errorf("traceio: stream count mismatch: trailer %d traces/%d epochs, read %d/%d",
			r.trailer.Traces, r.trailer.Epochs, r.seen.Traces, r.seen.Epochs)
		return testbed.Trace{}, r.err
	}
	r.err = io.EOF
	if r.trailer.Partial {
		r.err = ErrPartial
	}
	if r.cur != nil {
		last := *r.cur
		r.cur = nil
		return last, nil
	}
	return testbed.Trace{}, r.err
}

// ReadAll drains the reader into a Dataset. For a declared-partial
// stream it returns the decoded prefix alongside ErrPartial.
func (r *Reader) ReadAll() (*testbed.Dataset, error) {
	ds := &testbed.Dataset{Label: r.label}
	for {
		tr, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return ds, nil
			}
			if errors.Is(err, ErrPartial) {
				return ds, err
			}
			return nil, err
		}
		ds.Traces = append(ds.Traces, tr)
	}
}

// Close releases the underlying file.
func (r *Reader) Close() error {
	if r.zr != nil {
		r.zr.Close()
	}
	return r.f.Close()
}

// Load reads a whole dataset written by a Writer. For a
// declared-partial stream it returns the decoded prefix alongside
// ErrPartial (see ErrPartial for the contract).
func Load(path string) (*testbed.Dataset, error) {
	r, err := NewReader(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	ds, err := r.ReadAll()
	if errors.Is(err, ErrPartial) {
		return ds, fmt.Errorf("%w: %s", ErrPartial, path)
	}
	if err != nil {
		return nil, fmt.Errorf("traceio: decode %s: %w", path, err)
	}
	return ds, nil
}
