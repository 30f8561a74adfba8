package predsvc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/predict"
)

// TestPredictServesQuantilesAndFamily: after enough traffic every predict
// response must carry a tournament winner plus an ordered [p10,p50,p90]
// interval, the per-family breakdown must cover the full zoo, and best
// must name the same selection as family.
func TestPredictServesQuantilesAndFamily(t *testing.T) {
	s := newSession("p")
	series := SyntheticSeries(1, 60, 42)[0]
	for i, x := range series.Throughputs {
		s.SetMeasurement(series.Inputs[i])
		s.Observe(x)
	}
	p := s.Predict()
	if p.Family == "" || p.BestForecastBps <= 0 {
		t.Fatalf("no tournament winner after 60 epochs: %+v", p)
	}
	if !(p.P10Bps > 0 && p.P10Bps <= p.P50Bps && p.P50Bps <= p.P90Bps) {
		t.Fatalf("quantiles not ordered/positive: p10=%v p50=%v p90=%v",
			p.P10Bps, p.P50Bps, p.P90Bps)
	}
	if len(p.Families) != 4 {
		t.Fatalf("family breakdown has %d entries, want 4 (MA, EWMA, HW, FB)", len(p.Families))
	}
	var won *FamilyState
	for i := range p.Families {
		f := &p.Families[i]
		if f.ErrorCount == 0 {
			t.Errorf("family %s scored no errors over 60 epochs", f.Name)
		}
		if f.Regret < 0 {
			t.Errorf("family %s regret %v < 0; regret is a gap to the best", f.Name, f.Regret)
		}
		if f.Name == p.Family {
			won = f
		}
	}
	if won == nil {
		t.Fatalf("winner %q not in the family breakdown", p.Family)
	}
	if won.Regret != 0 {
		t.Errorf("winner %s has regret %v, want 0 (it is the best-in-hindsight)", won.Name, won.Regret)
	}
	if p.Best != p.Family || p.BestForecastBps != won.ForecastBps {
		t.Errorf("best %q %v does not restate family %q %v", p.Best, p.BestForecastBps, won.Name, won.ForecastBps)
	}
}

// TestCalibrationEndToEnd is the acceptance criterion for the quantile
// surface: replay a deterministic synthetic workload against a real
// daemon with interval scoring on, and require the empirical coverage of
// the served [p10,p90] intervals to land within ±10 points of the nominal
// 80%.
func TestCalibrationEndToEnd(t *testing.T) {
	base, stop := startDaemon(t, Config{Shards: 8, Capacity: 256})
	defer stop()

	series := SyntheticSeries(12, 80, 17)
	rep, err := Replay(context.Background(), LoadConfig{Nodes: []string{base}, Workers: 4}, series)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("calibration run had %d request errors", rep.Errors)
	}
	if rep.IntervalsScored == 0 {
		t.Fatal("no intervals scored: predict responses are not serving quantiles")
	}
	if rep.IntervalCoverage < 0.70 || rep.IntervalCoverage > 0.90 {
		t.Errorf("empirical [p10,p90] coverage = %.3f over %d intervals, want within [0.70, 0.90]",
			rep.IntervalCoverage, rep.IntervalsScored)
	}
	t.Logf("calibration: coverage %.3f over %d intervals", rep.IntervalCoverage, rep.IntervalsScored)
}

// TestLegacyV1SnapshotRejected: snapshots of earlier formats are no longer
// restorable — version 1 (hb_errors / fb_errors, no families), version 2
// (a replayed observation history beside the families' error windows),
// version 3 (one JSON document of live state), version 4 (a record stream
// of JSON states), version 5 (binary states with an LSO window per HB
// family) and version 6 (seven families) — even with an intact sha256
// trailer, and neither
// is a record stream of another version nor a current one holding state
// the configuration refuses. Each must be refused as ErrCorruptSnapshot and
// quarantined at boot — never half restored.
func TestLegacyV1SnapshotRejected(t *testing.T) {
	legacy := func(body string) []byte {
		sum := sha256.Sum256([]byte(body))
		return []byte(body + "\nsha256:" + hex.EncodeToString(sum[:]) + "\n")
	}
	okJSON := `{"path":"ok-path","observations":1,` +
		`"families":[{"name":"10-MA-LSO","lso":{"window":[10e6],"inner":{"ma":{"ring":[10e6],"sum":10e6}}}}]}`
	maState := func(ring ...float64) predict.EnsembleState {
		var sum float64
		for _, x := range ring {
			sum += x
		}
		return predict.EnsembleState{Observations: 1, LSO: predict.LSOState{Window: []float64{10e6}},
			Families: []predict.FamilySnapshot{{
				Name:           "10-MA-LSO",
				PredictorState: predict.PredictorState{MA: &predict.MAState{Ring: ring, Sum: sum}},
			}}}
	}
	okPath := encodeState(t, maState(10e6))
	// The second path's MA ring is longer than the order: the first path
	// must not stay restored.
	badPath := encodeState(t, maState(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11))
	files := map[string][]byte{
		"v1": legacy(`{"version":1,"paths":[{"path":"v1-path","observations":6,` +
			`"history":[10e6,12e6,11e6,13e6,12e6,12.5e6],` +
			`"fb_inputs":{"rtt_s":0.05,"loss_rate":0.001,"avail_bw_bps":20e6},"fb_age":2,` +
			`"hb_errors":[[0.2,-0.1],[0.15,-0.12],[0.3,-0.2]],"fb_errors":[0.5,0.4]}]}`),
		"v2": legacy(`{"version":2,"paths":[{"path":"v2-path","observations":6,` +
			`"history":[10e6,12e6,11e6,13e6,12e6,12.5e6],` +
			`"fb_inputs":{"rtt_s":0.05,"loss_rate":0.001,"avail_bw_bps":20e6},"fb_age":2,` +
			`"families":[{"name":"10-MA-LSO","errors":[0.2,-0.1,0.15]}]}]}`),
		"v3":           legacy(`{"version":3,"paths":[` + okJSON + `]}`),
		"v3 stream":    streamOf(t, "predsvc.PathSnapshot/3", record(t, "ok-path", []byte(okJSON))),
		"v4 stream":    streamOf(t, "predsvc.PathSnapshot/4", record(t, "ok-path", []byte(okJSON))),
		"v99 stream":   streamOf(t, "predsvc.PathSnapshot/99", record(t, "ok-path", okPath)),
		"v5 stream":    streamOf(t, "predsvc.PathSnapshot/5", record(t, "ok-path", okPath)),
		"v6 stream":    streamOf(t, "predsvc.PathSnapshot/6", record(t, "ok-path", okPath)),
		"v7 malformed": streamOf(t, sessionsFormat, record(t, "ok-path", okPath), record(t, "bad-path", badPath)),
	}
	// The intact first record alone restores, so the malformed case fails
	// on its second record.
	if n, err := NewRegistry(Config{}).ReadSnapshot(bytes.NewReader(streamOf(t, sessionsFormat, record(t, "ok-path", okPath)))); n != 1 || err != nil {
		t.Fatalf("ReadSnapshot of the intact record = %d, %v", n, err)
	}
	for name, data := range files {
		if _, err := NewRegistry(Config{Shards: 1, Capacity: 8}).ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("%s: ReadSnapshot err = %v, want ErrCorruptSnapshot", name, err)
		}

		file := filepath.Join(t.TempDir(), "snap.json")
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(Config{Shards: 1, Capacity: 8})
		st, err := srv.RestoreSnapshot(file)
		if err != nil {
			t.Fatal(err)
		}
		if st.Paths != 0 || st.Quarantined == "" || !errors.Is(st.Reason, ErrCorruptSnapshot) {
			t.Fatalf("%s: RestoreSnapshot = %+v, want a quarantine", name, st)
		}
		if srv.Registry().Len() != 0 {
			t.Errorf("%s: registry holds %d paths after a rejected snapshot", name, srv.Registry().Len())
		}
	}
}

// TestSnapshotZooFamiliesFinite mirrors the PR-2 Holt-Winters clamp fix
// at the zoo level: after a collapsing series (HW goes negative, raw
// relative errors blow up toward ±Inf) every family's serialized error
// window must still be finite.
func TestSnapshotZooFamiliesFinite(t *testing.T) {
	reg := NewRegistry(Config{Shards: 1, Capacity: 8})
	s := reg.GetOrCreate("falling")
	in := predict.FBInputs{RTT: 0.0001, LossRate: 0, AvailBw: math.MaxFloat64 / 2}
	for _, x := range []float64{1e12, 1e8, 1e6, 1e4, 1e4, 1e4} {
		s.SetMeasurement(in)
		s.Observe(x)
	}
	stream, paths := snapshotRecords(t, reg)
	if len(paths) != 1 {
		t.Fatalf("zoo snapshot with extreme inputs holds %d records, want 1", len(paths))
	}
	for _, fs := range paths[0].Families {
		for _, e := range fs.Errors {
			if math.IsInf(e, 0) || math.IsNaN(e) {
				t.Fatalf("family %s window holds non-finite error %v", fs.Name, e)
			}
		}
	}
	// And it restores: the serialized state is valid.
	reg2 := NewRegistry(Config{Shards: 1, Capacity: 8})
	if _, err := reg2.ReadSnapshot(bytes.NewReader(stream)); err != nil {
		t.Fatalf("restore of extreme-input snapshot failed: %v", err)
	}
	s2, _ := reg2.Peek("falling")
	p := s2.Predict()
	for _, f := range p.Families {
		for _, v := range []float64{f.ForecastBps, f.P10Bps, f.P50Bps, f.P90Bps, f.RMSRE} {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("family %s serves non-finite value %v after restore", f.Name, v)
			}
		}
	}
}

// TestSelectionCountsSurface: the daemon's /v1/stats must expose how often
// each family won the tournament, and the totals must add up to the
// predict responses that had a winner.
func TestSelectionCountsSurface(t *testing.T) {
	srv := NewServer(Config{Shards: 2, Capacity: 32})
	series := SyntheticSeries(2, 30, 3)
	for _, ps := range series {
		sess := srv.Registry().GetOrCreate(ps.Path)
		for i, x := range ps.Throughputs {
			sess.SetMeasurement(ps.Inputs[i])
			sess.Observe(x)
			p := sess.Predict()
			if p.Family != "" {
				srv.Metrics().recordSelection(p.Family)
			}
		}
	}
	counts := srv.Metrics().SelectionCounts()
	if len(counts) != 4 {
		t.Fatalf("SelectionCounts has %d families, want 4: %v", len(counts), counts)
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Fatal("no selections recorded over 60 predicts")
	}
}
