package predsvc

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/predict"
	"repro/internal/predsvc/store"
	"repro/internal/stats"
)

func TestSessionAccuracyBookkeeping(t *testing.T) {
	s := newSession("p")
	series := []float64{10e6, 12e6, 11e6, 13e6, 12e6, 12.5e6}
	for _, x := range series {
		s.Observe(x)
	}
	p := s.Predict()
	if p.Observations != uint64(len(series)) {
		t.Fatalf("Observations = %d, want %d", p.Observations, len(series))
	}
	if len(p.Families) != 4 {
		t.Fatalf("zoo size = %d, want 4 (MA, EWMA, HW, FB)", len(p.Families))
	}
	hb := p.Families[:3]
	for _, st := range hb {
		if !st.Ready {
			t.Errorf("%s not ready after %d observations", st.Name, len(series))
		}
		// First observation yields no standing forecast, so n-1 errors.
		if st.ErrorCount != len(series)-1 {
			t.Errorf("%s ErrorCount = %d, want %d", st.Name, st.ErrorCount, len(series)-1)
		}
		if st.RMSRE <= 0 {
			t.Errorf("%s RMSRE = %v, want > 0 on a noisy series", st.Name, st.RMSRE)
		}
	}
	if p.Best == "" || p.BestForecastBps <= 0 {
		t.Fatalf("no best predictor selected: %+v", p)
	}
	// Best must be the minimum-RMSRE qualified candidate.
	bestRMSRE := math.Inf(1)
	for _, st := range hb {
		if st.ErrorCount >= 3 && st.RMSRE < bestRMSRE {
			bestRMSRE = st.RMSRE
		}
	}
	for _, st := range hb {
		if st.Name == p.Best && st.RMSRE != bestRMSRE {
			t.Errorf("best %s has RMSRE %v, but minimum is %v", p.Best, st.RMSRE, bestRMSRE)
		}
	}
}

func TestSessionFBSide(t *testing.T) {
	s := newSession("p")
	in := predict.FBInputs{RTT: 0.05, LossRate: 0.01, AvailBw: 20e6}
	f := s.SetMeasurement(in)
	if f <= 0 {
		t.Fatalf("FB forecast = %v, want > 0 for lossy inputs", f)
	}
	want := predict.NewFB(predict.FBConfig{}).Predict(in)
	if f != want {
		t.Errorf("FB forecast = %v, want %v (same as raw predictor)", f, want)
	}
	// The FB forecast standing when an observation arrives is scored.
	s.Observe(f * 2)
	p := s.Predict()
	if p.FB == nil {
		t.Fatal("Prediction.FB missing after SetMeasurement")
	}
	fb := p.Families[3]
	if fb.Name != "FB" || fb.ErrorCount != 1 {
		t.Errorf("family %s ErrorCount = %d, want FB with 1", fb.Name, fb.ErrorCount)
	}
	// Over-estimation by 2× ⇒ |E| = 1 (Eq. 4).
	if got := fb.RMSRE; math.Abs(got-1) > 1e-9 {
		t.Errorf("FB RMSRE = %v, want 1", got)
	}
}

func TestSessionErrorMatchesEq4(t *testing.T) {
	s := newSession("p")
	s.Observe(10e6)
	s.Observe(20e6)
	p := s.Predict()
	// EWMA forecast before the 2nd observation was 10e6; the MA(10)
	// forecast was also 10e6. E = (10e6-20e6)/10e6 = -1 ⇒ RMSRE 1.
	for _, st := range p.Families[:2] {
		if math.Abs(st.RMSRE-1) > 1e-9 {
			t.Errorf("%s RMSRE = %v, want 1 (single Eq.4 error of -1)", st.Name, st.RMSRE)
		}
	}
	if e := stats.RelativeError(10e6, 20e6); e != -1 {
		t.Fatalf("sanity: RelativeError = %v, want -1", e)
	}
}

func TestSessionDeterminism(t *testing.T) {
	series := SyntheticSeries(1, 60, 99)[0]
	run := func() ([]byte, Prediction) {
		s := newSession("p")
		for i, x := range series.Throughputs {
			s.SetMeasurement(series.Inputs[i])
			s.Observe(x)
		}
		p := s.Predict()
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return data, p
	}
	b1, p1 := run()
	b2, p2 := run()
	if !reflect.DeepEqual(p1, p2) {
		t.Errorf("predictions differ across identical replays:\n%+v\n%+v", p1, p2)
	}
	if string(b1) != string(b2) {
		t.Errorf("JSON bodies differ across identical replays:\n%s\n%s", b1, b2)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	cfg := Config{Shards: 2, Capacity: 32}
	reg := NewRegistry(cfg)
	series := SyntheticSeries(5, 40, 7)
	for _, ps := range series {
		s := reg.GetOrCreate(ps.Path)
		for i, x := range ps.Throughputs {
			s.SetMeasurement(ps.Inputs[i])
			s.Observe(x)
		}
	}
	stream, paths := snapshotRecords(t, reg)
	if len(paths) != len(series) {
		t.Fatalf("snapshot has %d paths, want %d", len(paths), len(series))
	}

	reg2 := NewRegistry(cfg)
	n, err := reg2.ReadSnapshot(bytes.NewReader(stream))
	if err != nil || n != len(series) {
		t.Fatalf("ReadSnapshot = (%d, %v), want (%d, nil)", n, err, len(series))
	}
	for _, ps := range series {
		s1, _ := reg.Peek(ps.Path)
		s2, ok := reg2.Peek(ps.Path)
		if !ok {
			t.Fatalf("path %s missing after restore", ps.Path)
		}
		b1, _ := json.Marshal(s1.Predict())
		b2, _ := json.Marshal(s2.Predict())
		if string(b1) != string(b2) {
			t.Errorf("%s: restored prediction differs\n%s\n%s", ps.Path, b1, b2)
		}
	}

	// Another version is rejected.
	bad := streamOf(t, "predsvc.PathSnapshot/99")
	if _, err := NewRegistry(cfg).ReadSnapshot(bytes.NewReader(bad)); err == nil {
		t.Error("ReadSnapshot accepted a bad snapshot version")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	srv := NewServer(Config{Shards: 1, Capacity: 8})
	srv.Registry().GetOrCreate("x").Observe(5e6)
	file := t.TempDir() + "/snap.json"
	if err := srv.WriteSnapshot(file); err != nil {
		t.Fatal(err)
	}
	fresh := NewServer(Config{Shards: 1, Capacity: 8})
	st, err := fresh.RestoreSnapshot(file)
	if err != nil || st.Paths != 1 || st.Quarantined != "" {
		t.Fatalf("RestoreSnapshot = %+v, %v; want 1 path", st, err)
	}
	if s, ok := fresh.Registry().Peek("x"); !ok || s.Observations() != 1 {
		t.Fatalf("restored registry lost x")
	}
}

// TestSnapshotFiniteAfterNonPositiveForecast: Holt-Winters forecasts a
// negative value after a steep throughput drop, which makes the raw
// relative error ±Inf. The session must clamp errors before they enter
// the rolling windows, or the record fails to encode (the codec refuses
// infinities) and the session drops out of snapshots.
func TestSnapshotFiniteAfterNonPositiveForecast(t *testing.T) {
	reg := NewRegistry(Config{Shards: 1, Capacity: 8})
	s := reg.GetOrCreate("falling")
	for _, x := range []float64{1e8, 1e6, 1e4, 1e4, 1e4} {
		s.Observe(x)
	}
	_, paths := snapshotRecords(t, reg)
	if len(paths) != 1 {
		t.Fatalf("snapshot with extreme errors holds %d records, want 1", len(paths))
	}
	for i, errs := range paths[0].Errors {
		for _, e := range errs {
			if math.IsInf(e, 0) || math.IsNaN(e) {
				t.Fatalf("family %d holds non-finite error %v", i, e)
			}
		}
	}
}

// pathState is one decoded record of a session stream.
type pathState struct {
	Path string
	predict.EnsembleState
}

// snapshotRecords snapshots reg with WriteSnapshot and returns the stream
// with every record decoded, in stream order.
func snapshotRecords(t *testing.T, reg *Registry) ([]byte, []pathState) {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), decodeStream(t, b.Bytes())
}

// decodeStream decodes every record of a session stream.
func decodeStream(t *testing.T, data []byte) []pathState {
	t.Helper()
	sr, err := store.NewStreamReader(bytes.NewReader(data), sessionsFormat)
	if err != nil {
		t.Fatal(err)
	}
	var paths []pathState
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return paths
		}
		if err != nil {
			t.Fatal(err)
		}
		ps := pathState{Path: rec.Path()}
		if err := ps.UnmarshalBinary(rec.Data()); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, ps)
	}
}
