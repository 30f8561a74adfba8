package predsvc

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
)

// reuseWriter is a ResponseWriter the allocation test keeps across
// requests: its header map and body buffer are cleared, not reallocated,
// so every object AllocsPerRun counts belongs to the server.
type reuseWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *reuseWriter) Header() http.Header         { return w.h }
func (w *reuseWriter) WriteHeader(code int)        { w.status = code }
func (w *reuseWriter) Write(b []byte) (int, error) { w.body = append(w.body, b...); return len(b), nil }

func (w *reuseWriter) reset() {
	clear(w.h)
	w.status = 0
	w.body = w.body[:0]
}

// TestRequestChainAllocs pins what one warm measure, predict or observe
// request allocates on its way through Server.Handler(): the obs/health
// routers, harden, the mux, instrument and the fast handler, with the
// server configured as predserverd configures it (Obs attached, the
// default in-flight cap) except that its Obs has a tracer, so a span
// opened per request would show here. One object each, and it is needed:
// harden's shieldWriter, which the panic recovery reads after the handler
// returns.
//
// The fast handler itself allocates nothing once its pooled wire codec is
// warm, and the Content-Type value is a shared slice (setJSON). A
// context.WithTimeout in the chain would add five here (timer context,
// timer and its callback, cancel func, Request copy) and three more on a
// real connection, whose cancelable context grows a children map and a
// Done channel; no handler reads the request context.
func TestRequestChainAllocs(t *testing.T) {
	const want = 1
	srv := NewServer(Config{Obs: obs.New(64)})
	h := srv.Handler()
	w := &reuseWriter{h: make(http.Header)}

	bodied := func(method, target, body string) func() *http.Request {
		req := httptest.NewRequest(method, target, nil)
		b := []byte(body)
		rd := bytes.NewReader(b)
		req.Body = io.NopCloser(rd)
		return func() *http.Request {
			rd.Reset(b)
			return req
		}
	}
	cases := []struct {
		name string
		req  func() *http.Request
	}{
		{"observe", bodied(http.MethodPost, "/v1/observe", `{"path":"alloc-path","throughput_bps":52428800.5}`)},
		{"measure", bodied(http.MethodPost, "/v1/measure", `{"path":"alloc-path","rtt_s":0.05,"loss_rate":0.001,"avail_bw_bps":8e7}`)},
		{"predict", bodied(http.MethodGet, "/v1/predict?path=alloc-path", "")},
	}
	serve := func(req *http.Request) {
		w.reset()
		h.ServeHTTP(w, req)
	}
	// Warm the session, the wire-codec pool and every buffer on the path.
	for i := 0; i < 32; i++ {
		for _, tc := range cases {
			serve(tc.req())
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := testing.AllocsPerRun(200, func() { serve(tc.req()) })
			if w.status != http.StatusOK {
				t.Fatalf("status %d: %s", w.status, w.body)
			}
			if ct := w.h.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q, want application/json", ct)
			}
			if raceEnabled {
				// The race detector makes sync.Pool drop a share of what
				// is put back, so the pooled wire codec is rebuilt at
				// random and the count is not the server's.
				return
			}
			if got != want {
				t.Errorf("%v allocs per request, want %d", got, want)
			}
		})
	}
}
