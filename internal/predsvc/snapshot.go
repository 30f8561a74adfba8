package predsvc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/predsvc/store"
)

// sessionsFormat names the payload of the record streams the service
// writes, snapshot files and handoff bodies, whose records are the spill
// log's: one per path, its data the binary predict.EnsembleState of the
// path's session — the observation count, the FB measurements and their
// age (so staleness flagging survives a restart), the coverage counters,
// the path's one LSO window and shift count, and the paper's four
// families' error windows in zoo order. No predictor state is stored:
// restoring installs that state into a fresh ensemble and rebuilds the HB
// trio from the window, exactly as it stood. A stream of any other format
// or version is refused.
const sessionsFormat = "predsvc.PathSnapshot/8"

// WriteSnapshot streams every session to w as a record stream, coldest
// first (see store.Store.Paths), so restoring it into an equally-sharded
// registry reproduces each shard's recency order. Cold sessions are copied
// verbatim from the spill log; the store is locked for one record at a
// time and never while w is written, so serving continues throughout. A
// path deleted mid-walk is skipped; one present for the whole walk appears
// exactly once.
func (r *Registry) WriteSnapshot(w io.Writer) error {
	sw := store.NewStreamWriter(w, sessionsFormat)
	for _, path := range r.st.Paths() {
		if rec, ok := r.st.Record(path); ok {
			if err := sw.Write(rec); err != nil {
				return err
			}
		}
	}
	return sw.Close()
}

// ReadSnapshot restores a WriteSnapshot stream into the registry (intended
// for a freshly built one), one bounded record at a time, and returns the
// number of paths restored. Paths beyond capacity evict exactly as live
// traffic would. A restore is never half applied: on any bad frame, bad
// state, or missing or mismatched trailer the paths already restored from
// the stream are deleted again and the error wraps ErrCorruptSnapshot
// (errors from r itself are returned as they are, after the same rollback).
func (r *Registry) ReadSnapshot(rd io.Reader) (int, error) {
	var restored []string
	fail := func(err error) (int, error) {
		for _, p := range restored {
			r.Delete(p)
		}
		if errors.Is(err, store.ErrCorruptStream) {
			err = fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
		}
		return 0, err
	}
	sr, err := store.NewStreamReader(rd, sessionsFormat)
	if err != nil {
		return fail(err)
	}
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return len(restored), nil
		}
		if err != nil {
			return fail(err)
		}
		path := rec.Path()
		s, err := r.decode(path, rec.Data())
		if err != nil {
			return fail(fmt.Errorf("%w: path %q: %v", ErrCorruptSnapshot, path, err))
		}
		r.install(path, s.ens)
		restored = append(restored, path)
	}
}

// ErrCorruptSnapshot tags snapshot data that fails its framing (see
// store.ErrCorruptStream), carries another format or version, or holds
// state the zoo refuses — anything a crash mid-write, a torn
// disk, or a foreign file could produce. Callers match it with errors.Is
// to distinguish "quarantine and boot empty" from real I/O failures.
var ErrCorruptSnapshot = errors.New("predsvc: corrupt snapshot")

// writeFileAtomic streams write's output into a temp file in the
// destination directory, fsyncs it, and atomically renames it over path,
// then syncs the directory — so readers never observe a half-written
// snapshot and a crash right after the rename cannot leave the directory
// entry pointing at unflushed data. A failure at any step leaves the
// previous snapshot untouched (the stream trailer is the last line of
// defense, not the first).
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".predsvc-snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriterSize(tmp, 64<<10)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file's entry is durable.
// Filesystems that refuse to sync directories (some network mounts) are
// tolerated: the rename itself was still atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

// Quarantine moves a corrupt snapshot aside to the first free
// "<path>.corrupt-<n>" name, preserving the evidence for post-mortems
// while letting the daemon boot with an empty registry.
func Quarantine(path string) (string, error) {
	for n := 1; ; n++ {
		q := fmt.Sprintf("%s.corrupt-%d", path, n)
		if _, err := os.Lstat(q); err == nil {
			continue
		} else if !errors.Is(err, fs.ErrNotExist) {
			return "", err
		}
		if err := os.Rename(path, q); err != nil {
			return "", err
		}
		return q, nil
	}
}
