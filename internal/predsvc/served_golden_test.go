package predsvc

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/predsvc/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden served bytes")

// TestServedBytesGolden pins what the service serves, byte for byte,
// against files recorded from an earlier build: every /v1/predict body of
// a deterministic replay, and the WriteSnapshot stream of the registry it
// leaves behind. The other byte-identity gates compare two runs of the
// same predictor code (fastpath vs oracle, 1 node vs 4, daemon vs shadow
// replay), so only this test fails when a refactor changes a forecast.
//
// The replay runs on a one-shard, four-slot spill registry, so every path
// is spilled and faulted back in mid-stream. Measurements are withheld on
// some epochs and for a long stretch in the middle, so the FB forecast goes
// stale and recovers. Series are long enough for the error windows to wrap.
//
// Re-record with: go test ./internal/predsvc -run TestServedBytesGolden -update
func TestServedBytesGolden(t *testing.T) {
	const paths, epochs = 5, 64
	srv, err := Open(Config{Shards: 1, Capacity: 4, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	do := func(method, target, body string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s = %d: %s", method, target, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	measured := func(k int) bool { return (k < 12 && k%5 != 3) || k >= 56 }

	series := SyntheticSeries(paths, epochs, 11)
	var predicts bytes.Buffer
	// Two passes over the paths, each covering half the epochs: with four
	// hot slots for five paths, the second pass faults every path back in
	// from the spill log partway through its series.
	for _, span := range [][2]int{{0, epochs / 2}, {epochs / 2, epochs}} {
		for _, ps := range series {
			for k := span[0]; k < span[1]; k++ {
				if measured(k) {
					in := ps.Inputs[k]
					do(http.MethodPost, "/v1/measure", fmt.Sprintf(`{"path":%q,"rtt_s":%g,"loss_rate":%g,"avail_bw_bps":%g}`,
						ps.Path, in.RTT, in.LossRate, in.AvailBw))
				}
				do(http.MethodPost, "/v1/observe", fmt.Sprintf(`{"path":%q,"throughput_bps":%g}`, ps.Path, ps.Throughputs[k]))
				body := do(http.MethodGet, "/v1/predict?path="+ps.Path, "")
				fmt.Fprintf(&predicts, "%s %d %s\n", ps.Path, k, strings.TrimRight(body, "\n"))
			}
		}
	}
	if st := srv.Registry().TierStats(); st.Faults == 0 || st.Spills == 0 {
		t.Fatalf("replay never crossed the spill tier: %+v", st)
	}
	var snap bytes.Buffer
	if err := srv.Registry().WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "served_predict.golden.gz", predicts.Bytes())
	checkGolden(t, "served_snapshot.golden", snap.Bytes())
}

// TestServedSnapshotPayloadParity: version 8 dropped the families' names
// and the HB trio's predictor states, which restore rebuilds from the LSO
// window. testdata/legacy_v7_snapshot.golden is served_snapshot.golden as
// recorded in version 7 from the same replay. The version-8 record at each
// position must be the version-7 record, byte for byte, with every name
// and predictor state removed — so the counters, the measurement, the LSO
// window and the error windows did not move. The two interval-coverage
// counters are left out of both: intervals moved to the (n+1)·p position
// after version 8, which changed which observations they count and
// nothing else in the record. The legacy file itself is refused.
func TestServedSnapshotPayloadParity(t *testing.T) {
	stream := func(name, format string) *store.StreamReader {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		sr, err := store.NewStreamReader(bytes.NewReader(data), format)
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	v8 := stream("served_snapshot.golden", sessionsFormat)
	v7 := stream("legacy_v7_snapshot.golden", "predsvc.PathSnapshot/7")
	for i := 0; ; i++ {
		rec8, err8 := v8.Next()
		rec7, err7 := v7.Next()
		if err8 == io.EOF && err7 == io.EOF {
			if i == 0 {
				t.Fatal("the goldens hold no records")
			}
			break
		}
		if err8 != nil || err7 != nil {
			t.Fatalf("record %d: version 8 %v, version 7 %v", i, err8, err7)
		}
		want, err := v7ToV8(rec7.Data())
		if err != nil {
			t.Fatalf("record %d (%s): %v", i, rec7.Path(), err)
		}
		got := v7walk{b: rec8.Data()}
		got.header()
		got.copy(len(got.b))
		if rec8.Path() != rec7.Path() || !bytes.Equal(got.out, want) {
			t.Fatalf("record %d (%s) differs from version 7's (%s)", i, rec8.Path(), rec7.Path())
		}
	}
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_v7_snapshot.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry(Config{}).ReadSnapshot(bytes.NewReader(legacy)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("ReadSnapshot of the version-7 golden: err = %v, want ErrCorruptSnapshot", err)
	}
}

// v7ToV8 rewrites a version-7 payload in the version-8 layout, less the
// coverage counters: each family's entry keeps its error window and loses
// its name and its predictor state (a kind byte, then that kind's fields).
func v7ToV8(data []byte) ([]byte, error) {
	w := v7walk{b: data}
	w.header()
	w.floats()  // LSO window
	w.uvarint() // shift count
	for n := w.uvarint(); n > 0 && w.err == nil; n-- {
		w.drop(func() { w.copy(int(w.uvarint())) }) // name
		w.floats()                                  // error window
		w.drop(w.predictor)
	}
	if w.err == nil && len(w.b) > 0 {
		w.err = fmt.Errorf("%d trailing bytes", len(w.b))
	}
	return w.out, w.err
}

// v7walk copies a version-7 payload to out as it reads it.
type v7walk struct {
	b, out []byte
	err    error
}

func (w *v7walk) copy(n int) {
	if w.err == nil && (n < 0 || n > len(w.b)) {
		w.err = errors.New("truncated")
	}
	if w.err == nil {
		w.out, w.b = append(w.out, w.b[:n]...), w.b[n:]
	}
}

// drop reads what read reads without keeping it in out.
func (w *v7walk) drop(read func()) {
	at := len(w.out)
	read()
	w.out = w.out[:min(at, len(w.out))]
}

func (w *v7walk) uvarint() uint64 {
	v, n := binary.Uvarint(w.b)
	if n <= 0 && w.err == nil {
		w.err = errors.New("bad varint")
	}
	w.copy(n)
	return v
}

// header copies what versions 7 and 8 share ahead of the LSO window, and
// drops the two coverage counters.
func (w *v7walk) header() {
	w.uvarint() // observations
	if w.copy(1); len(w.out) > 0 && w.out[len(w.out)-1] == 1 {
		w.copy(24) // the measurement
	}
	w.uvarint() // measurement age
	w.drop(func() { w.uvarint(); w.uvarint() })
}

func (w *v7walk) floats() { w.copy(8 * int(w.uvarint())) }

// predictor copies one predictor state: a kind byte, then its fields.
func (w *v7walk) predictor() {
	if w.copy(1); w.err != nil {
		return
	}
	switch kind := w.out[len(w.out)-1]; kind {
	case 0: // none
	case 1: // MA
		w.floats()
		w.copy(8)
	case 2: // EWMA
		w.copy(9)
	case 3: // Holt-Winters
		w.copy(24)
		w.uvarint()
	default:
		w.err = fmt.Errorf("unknown kind %d", kind)
	}
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update; a ".gz" name is stored gzip-compressed. A mismatch reports the
// first differing byte in context.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	file := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data := got
		if strings.HasSuffix(name, ".gz") {
			var zb bytes.Buffer
			zw, _ := gzip.NewWriterLevel(&zb, gzip.BestCompression)
			zw.Write(got)
			zw.Close()
			data = zb.Bytes()
		}
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err == nil && strings.HasSuffix(name, ".gz") {
		var zr *gzip.Reader
		if zr, err = gzip.NewReader(bytes.NewReader(want)); err == nil {
			want, err = io.ReadAll(zr)
		}
	}
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	clip := func(b []byte) []byte { return b[max(0, i-120):min(len(b), i+120)] }
	t.Fatalf("%s: first difference at byte %d (line %d)\ngot:  %s\nwant: %s",
		name, i, bytes.Count(want[:i], []byte("\n"))+1, clip(got), clip(want))
}
