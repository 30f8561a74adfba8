package predsvc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/predict"
)

// FuzzObserveBatch holds POST /v1/observe-batch's decoder to
// encoding/json on arbitrary bodies up to maxBodyBytes. It must never
// panic, must answer 200 exactly when json.Decoder decodes the body into an
// ObserveBatchRequest of at most maxBatchItems observations, as the oracle
// handler does, and must then count as accepted and rejected what applying
// those items does. The seeds are the committed corpus in testdata/fuzz.
//
// Run with: go test ./internal/predsvc -run '^$' -fuzz FuzzObserveBatch -fuzztime 10s
func FuzzObserveBatch(f *testing.F) {
	s, err := Open(Config{})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxBodyBytes {
			return
		}
		rec := httptest.NewRecorder()
		s.handleObserveBatchFast(rec, httptest.NewRequest(http.MethodPost, "/v1/observe-batch", bytes.NewReader(body)))
		var req ObserveBatchRequest
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		if ok := err == nil && len(req.Observations) <= maxBatchItems; (rec.Code == http.StatusOK) != ok {
			t.Fatalf("status %d, but encoding/json decodes %d observations with err %v\n%s", rec.Code, len(req.Observations), err, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return
		}
		var got ObserveBatchResponse
		want := ObserveBatchResponse{Rejected: len(req.Observations)}
		for _, ob := range req.Observations {
			if ob.Path != "" && ValidObservation(ob.ThroughputBps) {
				want.Accepted, want.Rejected = want.Accepted+1, want.Rejected-1
			}
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got != want {
			t.Fatalf("served %s (err %v), applying encoding/json's items gives %+v", rec.Body.Bytes(), err, want)
		}
	})
}

// FuzzPredictBatch holds POST /v1/predict-batch's decoder to the
// encoding/json oracle handler on arbitrary bodies up to maxBodyBytes, on
// a server that knows the paths "a", "b" and "aé\n". It must never panic,
// must answer with the oracle's status, and when that is 200 with the
// oracle's bytes: the same predictions in the same order and the same
// missing paths. Predicting changes no session, so both handlers serve
// the same state. The seeds are the committed corpus in testdata/fuzz.
//
// Run with: go test ./internal/predsvc -run '^$' -fuzz FuzzPredictBatch -fuzztime 10s
func FuzzPredictBatch(f *testing.F) {
	s, err := Open(Config{})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	for i, path := range []string{"a", "b", "a\u00e9\n"} {
		s.reg.GetOrCreate(path).SetMeasurement(predict.FBInputs{RTT: 0.05, LossRate: 0.001 * float64(i+1), AvailBw: 2e7})
		for k := 0; k < 12; k++ {
			s.reg.GetOrCreate(path).Observe(1e7 * float64(1+(i+k)%4))
		}
	}
	serve := func(h func(http.ResponseWriter, *http.Request) int, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodPost, "/v1/predict-batch", bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxBodyBytes {
			return
		}
		got, want := serve(s.handlePredictBatchFast, body), serve(s.handlePredictBatch, body)
		if got.Code != want.Code {
			t.Fatalf("status %d, oracle %d\nserved: %s\noracle: %s", got.Code, want.Code, got.Body.Bytes(), want.Body.Bytes())
		}
		if got.Code == http.StatusOK && !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("served bytes differ from the oracle's\nserved: %s\noracle: %s", got.Body.Bytes(), want.Body.Bytes())
		}
	})
}

// FuzzPathSnapshotRestore feeds arbitrary bytes to the session codec: the
// one decoder of record payloads, which arrive from the spill log, from
// snapshot files and from other nodes (FuzzRecordStream in store covers
// the framing around them). It must never panic, and a record
// it accepts must re-encode to a fixed point — decoding its encoding and
// encoding again gives the same bytes. The restored session must then
// serve and absorb an observation. Seeds are real records at several
// lifetimes plus the committed corpus in testdata/fuzz.
//
// The codec decodes into a reused state, so each input is also decoded
// twice by hand: into a fresh state, and into one that has just held a
// full 112-observation record. Both must accept or refuse alike and
// re-encode to the same bytes, or a field leaked from the earlier record
// (a measurement the input does not carry, a longer error window).
//
// Run with: go test ./internal/predsvc -run '^$' -fuzz FuzzPathSnapshotRestore -fuzztime 10s
func FuzzPathSnapshotRestore(f *testing.F) {
	codec := sessionCodec()
	series := SyntheticSeries(1, 112, 13)[0]
	s := newSession(series.Path)
	for k := 0; k < len(series.Throughputs); k++ {
		switch k {
		case 0, 3, 12, 39:
			data, err := codec.Encode(nil, s)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
		if k%9 != 4 {
			s.SetMeasurement(series.Inputs[k])
		}
		s.Observe(series.Throughputs[k])
	}
	full, err := codec.Encode(nil, s)
	if err != nil {
		f.Fatal(err)
	}
	// accept decodes data into st and installs it, as the codec's Decode
	// does, and returns st's binary form when both succeed.
	accept := func(st *predict.EnsembleState, data []byte) ([]byte, error) {
		if err := st.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		if err := predict.NewEnsemble().SetState(*st); err != nil {
			return nil, err
		}
		return st.AppendBinary(nil)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh, reused predict.EnsembleState
		if err := reused.UnmarshalBinary(full); err != nil {
			t.Fatal(err)
		}
		bf, errF := accept(&fresh, data)
		br, errR := accept(&reused, data)
		if (errF == nil) != (errR == nil) || !bytes.Equal(bf, br) {
			t.Fatalf("a reused state decodes differently from a fresh one:\nfresh  %x (%v)\nreused %x (%v)", bf, errF, br, errR)
		}
		// The payload does not name its path; the record frame does.
		e, err := codec.Decode(series.Path, data)
		if err != nil {
			return
		}
		b1, err := codec.Encode(nil, e)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		e2, err := codec.Decode(series.Path, b1)
		if err != nil {
			t.Fatalf("re-encoded record refused: %v\n%x", err, b1)
		}
		b2, err := codec.Encode(nil, e2)
		if err != nil || !bytes.Equal(b1, b2) {
			t.Fatalf("re-encoding is not a fixed point (err %v):\n%x\n%x", err, b1, b2)
		}
		s := e.(*Session)
		s.Predict()
		s.SetMeasurement(series.Inputs[0])
		s.Observe(series.Throughputs[0])
		s.Predict()
	})
}
