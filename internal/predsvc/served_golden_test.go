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

// TestServedSnapshotPayloadParity: version 7 dropped the switcher,
// regression and ECM families. testdata/legacy_v6_snapshot.golden is
// served_snapshot.golden as recorded in version 6 from the same replay. The
// version-7 record at each position must be the version-6 record, byte for
// byte, with those three family entries removed — so the four remaining
// families' error windows and predictor states, and the LSO window, did not
// move — except for the coverage counters, which count the new selection's
// intervals. The legacy file itself is refused.
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
	v7 := stream("served_snapshot.golden", sessionsFormat)
	v6 := stream("legacy_v6_snapshot.golden", "predsvc.PathSnapshot/6")
	for i := 0; ; i++ {
		rec7, err7 := v7.Next()
		rec6, err6 := v6.Next()
		if err7 == io.EOF && err6 == io.EOF {
			if i == 0 {
				t.Fatal("the goldens hold no records")
			}
			break
		}
		if err7 != nil || err6 != nil {
			t.Fatalf("record %d: version 7 %v, version 6 %v", i, err7, err6)
		}
		head, tail, err := v6ToV7(rec6.Data())
		if err != nil {
			t.Fatalf("record %d (%s): %v", i, rec6.Path(), err)
		}
		// Skip version 7's two coverage counters.
		rest, ok := bytes.CutPrefix(rec7.Data(), head)
		for j := 0; j < 2 && ok; j++ {
			_, n := binary.Uvarint(rest)
			ok, rest = n > 0, rest[max(n, 0):]
		}
		if rec7.Path() != rec6.Path() || !ok || !bytes.Equal(rest, tail) {
			t.Fatalf("record %d (%s) differs from version 6's (%s)", i, rec7.Path(), rec6.Path())
		}
	}
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_v6_snapshot.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry(Config{}).ReadSnapshot(bytes.NewReader(legacy)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("ReadSnapshot of the version-6 golden: err = %v, want ErrCorruptSnapshot", err)
	}
}

// v6ToV7 rewrites a version-6 payload in the version-7 layout: the entries
// of the families with predictor kinds 4, 5 and 6 (switcher, regression
// and ECM) removed and the family count lowered to match. It returns the
// payload before the two coverage counters and after them.
func v6ToV7(data []byte) (head, tail []byte, err error) {
	w := v6walk{b: data}
	w.uvarint() // observations
	if w.copy(1); len(w.out) > 0 && w.out[len(w.out)-1] == 1 {
		w.copy(24) // the measurement
	}
	w.uvarint() // measurement age
	head, w.out = w.out, nil
	w.uvarint() // coverage
	w.uvarint()
	w.out = nil
	w.floats()  // LSO window
	w.uvarint() // shift count
	at := len(w.out)
	var kept uint64
	n := w.uvarint()
	families := len(w.out)
	for ; n > 0 && w.err == nil; n-- {
		start := len(w.out)
		w.copy(int(w.uvarint())) // name
		w.floats()               // error window
		if w.predictor() >= 4 {
			w.out = w.out[:start]
		} else {
			kept++
		}
	}
	if w.err == nil && len(w.b) > 0 {
		w.err = fmt.Errorf("%d trailing bytes", len(w.b))
	}
	if w.err != nil {
		return nil, nil, w.err
	}
	return head, slices.Concat(w.out[:at], binary.AppendUvarint(nil, kept), w.out[families:]), nil
}

// v6walk copies a version-6 payload to out as it reads it.
type v6walk struct {
	b, out []byte
	err    error
}

func (w *v6walk) copy(n int) {
	if w.err == nil && (n < 0 || n > len(w.b)) {
		w.err = errors.New("truncated")
	}
	if w.err == nil {
		w.out, w.b = append(w.out, w.b[:n]...), w.b[n:]
	}
}

func (w *v6walk) uvarint() uint64 {
	v, n := binary.Uvarint(w.b)
	if n <= 0 && w.err == nil {
		w.err = errors.New("bad varint")
	}
	w.copy(n)
	return v
}

func (w *v6walk) floats() { w.copy(8 * int(w.uvarint())) }

// predictor copies one predictor state and returns its kind.
func (w *v6walk) predictor() byte {
	if w.copy(1); w.err != nil {
		return 0
	}
	kind := w.out[len(w.out)-1]
	switch kind {
	case 0: // none
	case 1: // MA
		w.floats()
		w.copy(8)
	case 2: // EWMA
		w.copy(9)
	case 3: // Holt-Winters
		w.copy(24)
		w.uvarint()
	case 4: // switcher
		w.floats()
		w.predictor()
		w.predictor()
	case 5: // regression
		w.floats()
		w.floats()
		w.uvarint()
		w.floats()
	case 6: // ECM
		w.floats()
		for n := w.uvarint(); n > 0 && w.err == nil; n-- {
			w.copy(3)
			w.floats()
		}
	default:
		w.err = fmt.Errorf("unknown kind %d", kind)
	}
	return kind
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
