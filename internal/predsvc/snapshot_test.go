package predsvc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/predsvc/store"
)

// TestRecordStreamTamperEvident: flipping any single byte of a small valid
// stream, truncating it at any offset, or swapping two of its records is
// rejected by the reader — restore returns ErrCorruptSnapshot and leaves
// nothing restored, and import answers 400.
func TestRecordStreamTamperEvident(t *testing.T) {
	reg := NewRegistry(Config{})
	for _, p := range []string{"a", "b", "c"} {
		reg.GetOrCreate(p).Observe(1e7)
	}
	data, _ := snapshotRecords(t, reg)
	srv := NewServer(Config{})
	h := srv.Handler()
	check := func(what string, tampered []byte) {
		t.Helper()
		r := NewRegistry(Config{})
		if _, err := r.ReadSnapshot(bytes.NewReader(tampered)); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("%s: ReadSnapshot err = %v, want ErrCorruptSnapshot", what, err)
		}
		if r.Len() != 0 {
			t.Fatalf("%s: a rejected snapshot left %d paths restored", what, r.Len())
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/import", bytes.NewReader(tampered)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: import answered %d (%s), want 400", what, rec.Code, rec.Body)
		}
	}
	for i := range data {
		for _, bit := range []byte{0x01, 0x80} {
			flipped := append([]byte(nil), data...)
			flipped[i] ^= bit
			check(fmt.Sprintf("byte %d ^ %#x", i, bit), flipped)
		}
	}
	for n := 0; n < len(data); n++ {
		check(fmt.Sprintf("truncated to %d bytes", n), data[:n])
	}
	// Splice the stream's own records under its own header and trailer.
	sr, err := store.NewStreamReader(bytes.NewReader(data), sessionsFormat)
	if err != nil {
		t.Fatal(err)
	}
	var recs []store.Record
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, append(store.Record(nil), rec...))
	}
	trailer := data[len(data)-40:]
	header := data[:len(data)-40-len(recs[0])-len(recs[1])-len(recs[2])]
	splice := func(recs ...store.Record) []byte {
		out := append([]byte(nil), header...)
		for _, r := range recs {
			out = append(out, r...)
		}
		return append(out, trailer...)
	}
	if !bytes.Equal(splice(recs...), data) {
		t.Fatal("splicing the records back does not rebuild the stream")
	}
	check("records swapped", splice(recs[1], recs[0], recs[2]))
	check("record dropped", splice(recs[0], recs[2]))
	check("record repeated", splice(recs[0], recs[0], recs[2]))
}

// endless yields zero bytes forever, counting them.
type endless struct{ n int64 }

func (e *endless) Read(p []byte) (int, error) {
	clear(p)
	e.n += int64(len(p))
	return len(p), nil
}

// oversizedStream is a stream header followed by one record header that
// declares a 1 GiB body.
func oversizedStream(t *testing.T) []byte {
	t.Helper()
	hdr := streamOf(t, sessionsFormat)
	hdr = hdr[:len(hdr)-40] // drop the trailer
	hdr = binary.BigEndian.AppendUint32(hdr, 1)
	return binary.BigEndian.AppendUint32(hdr, 1<<30)
}

// TestImportRefusesOversizedRecord: an import whose record header
// declares 1 GiB answers 400 from the header alone, without reading or
// allocating the body it announces.
func TestImportRefusesOversizedRecord(t *testing.T) {
	srv := NewServer(Config{})
	body := &endless{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/import",
		io.MultiReader(bytes.NewReader(oversizedStream(t)), body)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("import answered %d (%s), want 400", rec.Code, rec.Body)
	}
	if body.n > 64<<10 {
		t.Errorf("import read %d bytes of the declared body", body.n)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("import allocated %d bytes for a refused record", grew)
	}
}

// TestSnapshotOversizedRecordQuarantined: a snapshot file whose record
// header declares 1 GiB is corrupt — quarantined, the daemon boots empty.
func TestSnapshotOversizedRecordQuarantined(t *testing.T) {
	file := filepath.Join(t.TempDir(), "snap")
	if err := os.WriteFile(file, oversizedStream(t), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{})
	st, err := srv.RestoreSnapshot(file)
	if err != nil || st.Quarantined == "" || !errors.Is(st.Reason, ErrCorruptSnapshot) {
		t.Fatalf("RestoreSnapshot = %+v, %v; want a quarantine", st, err)
	}
}

// blockingWriter accepts its first `after` writes, then blocks until
// released.
type blockingWriter struct {
	after   int
	blocked chan struct{}
	release chan struct{}
	once    sync.Once
	buf     bytes.Buffer
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	if w.after == 0 {
		close(w.blocked)
		<-w.release
	}
	w.after--
	return w.buf.Write(p)
}

func (w *blockingWriter) unblock() { w.once.Do(func() { close(w.release) }) }

// TestSnapshotDoesNotStopTheNode: a snapshot whose writer stalls after the
// first record (a slow disk, a stuck pipe) holds no store lock, so requests
// for hot and cold paths on a spill registry keep being served; the
// snapshot then completes with every path exactly once.
func TestSnapshotDoesNotStopTheNode(t *testing.T) {
	reg, err := OpenRegistry(Config{Shards: 1, Capacity: 4, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	const paths = 68
	for i := 0; i < paths; i++ {
		reg.WithBytes(fmt.Appendf(nil, "p%03d", i), true, func(s *Session) { s.Observe(1e7) })
	}
	if st := reg.TierStats(); st.ColdPaths < 64 {
		t.Fatalf("tier stats %+v, want ≥ 64 cold paths", st)
	}
	hot, cold := reg.Recent(1)[0].Path(), "p010"

	w := &blockingWriter{after: 2, blocked: make(chan struct{}), release: make(chan struct{})} // header, first record
	defer w.unblock()
	done := make(chan error, 1)
	go func() { done <- reg.WriteSnapshot(w) }()
	<-w.blocked
	for _, p := range []string{hot, cold} {
		served := make(chan bool, 1)
		go func() { served <- reg.WithBytes([]byte(p), false, func(s *Session) { s.Observe(2e7) }) }()
		select {
		case ok := <-served:
			if !ok {
				t.Fatalf("WithBytes(%s) found no session", p)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("With(%s) blocked behind a stalled snapshot writer", p)
		}
	}
	w.unblock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	recs := decodeStream(t, w.buf.Bytes())
	for _, ps := range recs {
		seen[ps.Path]++
	}
	if len(recs) != paths || len(seen) != paths {
		t.Fatalf("snapshot holds %d records over %d paths, want each of %d once", len(recs), len(seen), paths)
	}
}
