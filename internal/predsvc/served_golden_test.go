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
	"slices"
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

// TestServedSnapshotPayloadParity: version 6 changed only where the LSO
// state sits. testdata/legacy_v5_snapshot.golden is served_snapshot.golden
// as recorded in version 5 from the same replay, when each of the HB trio
// carried its own LSO window and shift count around its predictor's state.
// In every version-5 record the three must be identical — one detector per
// path loses nothing — and the version-6 record at the same position must
// be that record, byte for byte, with the three collapsed into the state's
// one and the predictor states unwrapped. The legacy file itself is
// refused.
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
	v6 := stream("served_snapshot.golden", sessionsFormat)
	v5 := stream("legacy_v5_snapshot.golden", "predsvc.PathSnapshot/5")
	for i := 0; ; i++ {
		rec6, err6 := v6.Next()
		rec5, err5 := v5.Next()
		if err6 == io.EOF && err5 == io.EOF {
			if i == 0 {
				t.Fatal("the goldens hold no records")
			}
			break
		}
		if err6 != nil || err5 != nil {
			t.Fatalf("record %d: version 6 %v, version 5 %v", i, err6, err5)
		}
		want, err := v5ToV6(rec5.Data())
		if err != nil {
			t.Fatalf("record %d (%s): %v", i, rec5.Path(), err)
		}
		if rec6.Path() != rec5.Path() || !bytes.Equal(rec6.Data(), want) {
			t.Fatalf("record %d (%s) differs from version 5's (%s)", i, rec6.Path(), rec5.Path())
		}
	}
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_v5_snapshot.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry(Config{}).ReadSnapshot(bytes.NewReader(legacy)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("ReadSnapshot of the version-5 golden: err = %v, want ErrCorruptSnapshot", err)
	}
}

// v5ToV6 rewrites a version-5 payload in the version-6 layout. Version 5
// wrapped each of the HB trio's states in an LSO state (kind 4: window,
// shift count, inner state); version 6 writes one window and shift count
// before the family count, the inner states bare, and numbers the kinds
// after LSO one lower. The trio's three LSO states must be identical.
func v5ToV6(data []byte) ([]byte, error) {
	w := v5walk{b: data}
	w.uvarint() // observations
	if w.copy(1); len(w.out) > 0 && w.out[len(w.out)-1] == 1 {
		w.copy(24) // the measurement
	}
	w.uvarint() // measurement age
	w.uvarint() // coverage
	w.uvarint()
	at := len(w.out)
	for n := w.uvarint(); n > 0 && w.err == nil; n-- {
		w.copy(int(w.uvarint())) // name
		w.floats()               // error window
		w.predictor()
	}
	if w.err == nil && len(w.b) > 0 {
		w.err = fmt.Errorf("%d trailing bytes", len(w.b))
	}
	if w.err != nil {
		return nil, w.err
	}
	if len(w.lso) != 3 || !bytes.Equal(w.lso[0], w.lso[1]) || !bytes.Equal(w.lso[0], w.lso[2]) {
		return nil, fmt.Errorf("%d LSO states, want 3 identical ones", len(w.lso))
	}
	return slices.Concat(w.out[:at], w.lso[0], w.out[at:]), nil
}

// v5walk copies a version-5 payload to out as it reads it, setting aside
// each LSO state's window and shift count in lso.
type v5walk struct {
	b, out []byte
	lso    [][]byte
	err    error
}

func (w *v5walk) copy(n int) {
	if w.err == nil && (n < 0 || n > len(w.b)) {
		w.err = errors.New("truncated")
	}
	if w.err == nil {
		w.out, w.b = append(w.out, w.b[:n]...), w.b[n:]
	}
}

func (w *v5walk) uvarint() uint64 {
	v, n := binary.Uvarint(w.b)
	if n <= 0 && w.err == nil {
		w.err = errors.New("bad varint")
	}
	w.copy(n)
	return v
}

func (w *v5walk) floats() { w.copy(8 * int(w.uvarint())) }

func (w *v5walk) predictor() {
	if w.copy(1); w.err != nil {
		return
	}
	kind := &w.out[len(w.out)-1]
	switch *kind {
	case 0: // none
	case 1: // MA
		w.floats()
		w.copy(8)
	case 2: // EWMA
		w.copy(9)
	case 3: // Holt-Winters
		w.copy(24)
		w.uvarint()
	case 4: // LSO
		w.out = w.out[:len(w.out)-1]
		start := len(w.out)
		w.floats()
		w.uvarint()
		w.lso = append(w.lso, slices.Clone(w.out[start:]))
		w.out = w.out[:start]
		w.predictor()
	case 5: // switcher
		*kind = 4
		w.floats()
		w.predictor()
		w.predictor()
	case 6: // regression
		*kind = 5
		w.floats()
		w.floats()
		w.uvarint()
		w.floats()
	case 7: // ECM
		*kind = 6
		w.floats()
		for n := w.uvarint(); n > 0 && w.err == nil; n-- {
			w.copy(3)
			w.floats()
		}
	default:
		w.err = fmt.Errorf("unknown kind %d", *kind)
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
