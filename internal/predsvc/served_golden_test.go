package predsvc

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
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

// TestServedSnapshotPayloadParity: the record-stream snapshot changed only
// the framing. testdata/legacy_v3_snapshot.golden is served_snapshot.golden
// as recorded in the version-3 format (one JSON document plus a sha256
// trailer line) from the same replay; the stream's record payloads must
// equal json.Marshal of each of its paths, in order and byte for byte.
// The legacy file itself is refused.
func TestServedSnapshotPayloadParity(t *testing.T) {
	stream, err := os.ReadFile(filepath.Join("testdata", "served_snapshot.golden"))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_v3_snapshot.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var v3 struct {
		Version int            `json:"version"`
		Paths   []PathSnapshot `json:"paths"`
	}
	body, _, ok := bytes.Cut(legacy, []byte("\nsha256:"))
	if !ok || json.Unmarshal(body, &v3) != nil || v3.Version != 3 || len(v3.Paths) == 0 {
		t.Fatalf("legacy golden is not a version-3 snapshot")
	}
	sr, err := store.NewStreamReader(bytes.NewReader(stream), sessionsFormat)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		rec, err := sr.Next()
		if err == io.EOF {
			if i != len(v3.Paths) {
				t.Fatalf("stream holds %d records, version 3 held %d paths", i, len(v3.Paths))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(v3.Paths) {
			t.Fatalf("stream holds more records than version 3 held paths (%d)", len(v3.Paths))
		}
		want, err := json.Marshal(v3.Paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if rec.Path() != v3.Paths[i].Path || !bytes.Equal(rec.Data(), want) {
			t.Fatalf("record %d (%s) differs from version 3's paths[%d] (%s)", i, rec.Path(), i, v3.Paths[i].Path)
		}
	}
	if _, err := NewRegistry(Config{}).ReadSnapshot(bytes.NewReader(legacy)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("ReadSnapshot of the version-3 golden: err = %v, want ErrCorruptSnapshot", err)
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
