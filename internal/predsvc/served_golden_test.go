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

	"repro/internal/predict"
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

// TestServedSnapshotPayloadParity: version 5 changed only the payload's
// encoding. testdata/legacy_v4_snapshot.golden is served_snapshot.golden as
// recorded in version 4 (JSON payloads) from the same replay; each version-5
// record, decoded, must carry the path and the state of the version-4 record
// at the same position, compared as json.Marshal of both states. The legacy
// file itself is refused.
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
	v5 := stream("served_snapshot.golden", sessionsFormat)
	v4 := stream("legacy_v4_snapshot.golden", "predsvc.PathSnapshot/4")
	for i := 0; ; i++ {
		rec5, err5 := v5.Next()
		rec4, err4 := v4.Next()
		if err5 == io.EOF && err4 == io.EOF {
			if i == 0 {
				t.Fatal("the goldens hold no records")
			}
			break
		}
		if err5 != nil || err4 != nil {
			t.Fatalf("record %d: version 5 %v, version 4 %v", i, err5, err4)
		}
		var st5, st4 predict.EnsembleState
		if err := st5.UnmarshalBinary(rec5.Data()); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		// A version-4 payload is the state's JSON plus a "path" field.
		if err := json.Unmarshal(rec4.Data(), &st4); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		j5, _ := json.Marshal(st5)
		j4, _ := json.Marshal(st4)
		if rec5.Path() != rec4.Path() || !bytes.Equal(j5, j4) {
			t.Fatalf("record %d (%s) differs from version 4's (%s)", i, rec5.Path(), rec4.Path())
		}
	}
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_v4_snapshot.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry(Config{}).ReadSnapshot(bytes.NewReader(legacy)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("ReadSnapshot of the version-4 golden: err = %v, want ErrCorruptSnapshot", err)
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
