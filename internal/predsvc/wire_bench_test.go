package predsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/predict"
)

// Wire codec benchmarks: each fastpath bench has a stdlib counterpart so
// the speedup claim is measured, not asserted. The four hot wire
// operations are defined once, as wireOps; the BenchmarkWire* benches time
// them and TestWireHotPathAllocFree holds each at 0 allocs/op — the
// fastpath's whole reason to exist.

var benchObserveBody = []byte(`{"path":"ams-3.example.net/sfo-1.example.net","throughput_bps":52428800.5}`)

// A wireOp is one hot wire operation bound to warm pooled state; it
// reports whether the operation produced a well-formed result.
type wireOp func() bool

// pooledWire takes a codec from the pool for the rest of tb.
func pooledWire(tb testing.TB) *wireCtx {
	wc := getWire()
	tb.Cleanup(func() { putWire(wc) })
	return wc
}

func observeDecodeOp(tb testing.TB) wireOp {
	wc := pooledWire(tb)
	return func() bool {
		wc.dec.Reset(benchObserveBody)
		tput, err := decodeObserveFields(&wc.dec, wc)
		return err == nil && tput != 0 && len(wc.path) != 0
	}
}

func observeEncodeOp(tb testing.TB) wireOp {
	path := []byte("ams-3.example.net/sfo-1.example.net")
	wc := pooledWire(tb)
	return func() bool {
		e := jenc{b: wc.out[:0]}
		e.raw(`{"path":`)
		e.strb(path)
		e.raw(`,"observations":`)
		e.u64(123456)
		e.raw("}")
		wc.out = e.b
		return len(wc.out) != 0 && !e.bad
	}
}

func predictEncodeOp(tb testing.TB) wireOp {
	p := benchPrediction(tb)
	wc := pooledWire(tb)
	return func() bool {
		e := jenc{b: wc.out[:0]}
		appendPrediction(&e, p)
		wc.out = e.b
		return len(wc.out) != 0 && !e.bad
	}
}

// predictRoundTripOp is the full hot predict cycle minus net/http: decode
// the query, look the session up by bytes, fill the pooled Prediction
// under the lock, and encode the response.
func predictRoundTripOp(tb testing.TB) wireOp {
	reg := NewRegistry(Config{})
	sess := reg.GetOrCreate("bench-path")
	for i := 0; i < 64; i++ {
		sess.Observe(5e7 * (1 + 0.01*float64(i%7)))
	}
	wc := pooledWire(tb)
	const rawQuery = "path=bench-path"
	return func() bool {
		if !queryPath(rawQuery, wc) {
			return false
		}
		if !reg.WithBytes(wc.path, false, func(s *Session) { s.PredictInto(&wc.pred, &wc.fb) }) {
			return false
		}
		e := jenc{b: wc.out[:0]}
		appendPrediction(&e, &wc.pred)
		wc.out = e.b
		return len(wc.out) != 0 && !e.bad
	}
}

var wireOps = []struct {
	name string
	op   func(testing.TB) wireOp
}{
	{"observe-decode", observeDecodeOp},
	{"observe-encode", observeEncodeOp},
	{"predict-encode", predictEncodeOp},
	{"predict-round-trip", predictRoundTripOp},
}

func TestWireHotPathAllocFree(t *testing.T) {
	for _, tc := range wireOps {
		t.Run(tc.name, func(t *testing.T) {
			op, ok := tc.op(t), true
			if got := testing.AllocsPerRun(200, func() { ok = op() && ok }); got != 0 {
				t.Errorf("%v allocs per op, want 0", got)
			}
			if !ok {
				t.Error("operation produced a malformed result")
			}
		})
	}
}

func benchWireOp(b *testing.B, mk func(testing.TB) wireOp) {
	op := mk(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !op() {
			b.Fatal("malformed result")
		}
	}
}

func BenchmarkWireObserveDecode(b *testing.B) { benchWireOp(b, observeDecodeOp) }

func BenchmarkJSONObserveDecode(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req ObserveRequest
		if err := json.Unmarshal(benchObserveBody, &req); err != nil || req.ThroughputBps == 0 {
			b.Fatal("bad decode")
		}
	}
}

func BenchmarkWireObserveEncode(b *testing.B) { benchWireOp(b, observeEncodeOp) }

func BenchmarkJSONObserveEncode(b *testing.B) {
	resp := ObserveResponse{Path: "ams-3.example.net/sfo-1.example.net", Observations: 123456}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := json.Marshal(resp)
		if err != nil || len(data) == 0 {
			b.Fatal("bad encode")
		}
	}
}

// benchPrediction is a steady-state prediction with every section
// populated — HB trio, FB, family tournament with quantiles — captured
// from a live session so the encode benches exercise the real shape.
func benchPrediction(tb testing.TB) *Prediction {
	tb.Helper()
	s := newSession("ams-3.example.net/sfo-1.example.net")
	for i := 0; i < 64; i++ {
		s.SetMeasurement(benchFBInputs(i))
		s.Observe(5e7 * (1 + 0.01*float64(i%7)))
	}
	p := new(Prediction)
	s.PredictInto(p, new(FBState))
	if p.Best == "" || p.FB == nil || len(p.Families) == 0 {
		tb.Fatal("bench prediction not fully populated")
	}
	return p
}

func benchFBInputs(i int) predict.FBInputs {
	return predict.FBInputs{
		RTT:      0.04 + 0.001*float64(i%5),
		LossRate: 0.001 * float64(i%3),
		AvailBw:  6e7,
	}
}

func BenchmarkWirePredictEncode(b *testing.B) { benchWireOp(b, predictEncodeOp) }

func BenchmarkJSONPredictEncode(b *testing.B) {
	p := benchPrediction(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := json.Marshal(p)
		if err != nil || len(data) == 0 {
			b.Fatal("bad encode")
		}
	}
}

func BenchmarkWirePredictRoundTrip(b *testing.B) { benchWireOp(b, predictRoundTripOp) }

// reusableBody is an io.ReadCloser over a fixed payload that can be
// rewound between handler invocations without reallocating.
type reusableBody struct{ r bytes.Reader }

func (rb *reusableBody) Read(p []byte) (int, error) { return rb.r.Read(p) }
func (rb *reusableBody) Close() error               { return nil }

// nullResponseWriter discards the response; the handler benches measure
// the server's work, not httptest's bookkeeping.
type nullResponseWriter struct{ h http.Header }

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

func benchObserveHandler(b *testing.B, oracle bool) {
	s, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.handleObserveFast
	if oracle {
		h = s.handleObserve
	}
	body := &reusableBody{}
	body.r.Reset(benchObserveBody)
	req := httptest.NewRequest("POST", "/v1/observe", nil)
	req.Body = body
	w := &nullResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.r.Reset(benchObserveBody)
		if status := h(w, req); status != http.StatusOK {
			b.Fatalf("status %d", status)
		}
	}
}

// BenchmarkWireObserveHandler / BenchmarkOracleObserveHandler measure
// one observe through the whole handler (body read, decode, registry,
// encode, write) on each path.
func BenchmarkWireObserveHandler(b *testing.B)   { benchObserveHandler(b, false) }
func BenchmarkOracleObserveHandler(b *testing.B) { benchObserveHandler(b, true) }

// BenchmarkPredloadServiceTime runs a small end-to-end replay (real HTTP
// over loopback, fastpath on) and reports the client-observed latency
// quantiles predload now tracks, as custom metrics next to ns/op.
func BenchmarkPredloadServiceTime(b *testing.B) {
	srv, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	series := SyntheticSeries(16, 30, 1)
	var rep *LoadReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = Replay(context.Background(), LoadConfig{BaseURL: ts.URL, Workers: 4}, series)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rep != nil {
		b.ReportMetric(float64(rep.LatencyP50Usec), "p50-us")
		b.ReportMetric(float64(rep.LatencyP99Usec), "p99-us")
	}
}
