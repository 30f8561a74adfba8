package predsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/fastjson"
	"repro/internal/predict"
)

// This file is the zero-alloc-in-steady-state wire fastpath for the hot
// endpoints (/v1/observe, /v1/measure, /v1/predict and both batch
// endpoints): hand-rolled encoders and decoders from internal/fastjson
// threaded through a pooled per-request context. The cold endpoints stay
// on encoding/json; the encoding/json twins of these handlers live in
// oracle_test.go as the correctness oracle the compat, digest and bench
// tests hold this file byte-identical to.
//
// Pooling ownership: a handler gets one wireCtx at entry and puts it
// back at exit; everything request-scoped — the body buffer, the
// decoder, the decoded path, the response buffer, the Prediction being
// encoded — lives inside it and is never referenced after the handler
// returns. Session state is never pooled: PredictInto copies what the
// response needs under the session lock.

// wireCtx is the pooled per-request workspace of the fastpath handlers.
type wireCtx struct {
	body []byte       // request body, read once up front
	dec  fastjson.Dec // decoder over body
	out  []byte       // response bytes (without the trailing newline)
	path []byte       // decoded path field, copied out of decoder scratch
	miss []byte       // predict-batch: pre-encoded "missing" members
	pred Prediction   // recycled via Session.PredictInto
	fb   FBState      // backing store for pred.FB
}

var wirePool = sync.Pool{New: func() any { return &wireCtx{} }}

func getWire() *wireCtx { return wirePool.Get().(*wireCtx) }

// maxWireRetained caps the response/miss buffers a pooled wireCtx may
// keep: a worst-case batch response (4096 predictions) is allowed to
// stay warm, anything larger is dropped.
const maxWireRetained = 8 << 20

func putWire(wc *wireCtx) {
	if cap(wc.body) > maxBodyBytes+1024 {
		wc.body = nil
	}
	if cap(wc.out) > maxWireRetained {
		wc.out = nil
	}
	if cap(wc.miss) > maxWireRetained {
		wc.miss = nil
	}
	wc.dec.Reset(nil)
	wirePool.Put(wc)
}

// errBodyTooLarge carries the exact text http.MaxBytesReader reports, so
// the fastpath's 400 body matches the oracle's byte for byte.
var errBodyTooLarge = errors.New("http: request body too large")

// readBody reads the whole request body into the pooled buffer, bounded
// by maxBodyBytes like the oracle's MaxBytesReader (same error text; the
// oracle additionally arranges a connection close, which a client
// pushing megabyte bodies at a service expecting hundred-byte ones can
// live without on this path).
func (wc *wireCtx) readBody(req *http.Request) error {
	b := wc.body[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := req.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if len(b) > maxBodyBytes {
			wc.body = b
			return errBodyTooLarge
		}
		if err != nil {
			wc.body = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// setPath copies a decoded string into the wireCtx-owned path buffer.
// Decoder-returned slices may alias its scratch buffer, which the next
// escaped key or string value overwrites; the copy keeps the path valid
// for the rest of the request.
func (wc *wireCtx) setPath(s []byte) {
	wc.path = append(wc.path[:0], s...)
}

// jenc is the response encoder: an append buffer plus a sticky flag for
// floats JSON cannot represent. When bad is set the caller abandons the
// buffer and reports the same encoding failure json.Marshal would.
type jenc struct {
	b   []byte
	bad bool
}

func (e *jenc) raw(s string)  { e.b = append(e.b, s...) }
func (e *jenc) str(s string)  { e.b = fastjson.AppendString(e.b, s) }
func (e *jenc) strb(s []byte) { e.b = fastjson.AppendStringBytes(e.b, s) }
func (e *jenc) u64(u uint64)  { e.b = fastjson.AppendUint64(e.b, u) }
func (e *jenc) i64(i int64)   { e.b = fastjson.AppendInt64(e.b, i) }
func (e *jenc) bln(v bool)    { e.b = fastjson.AppendBool(e.b, v) }

func (e *jenc) f64(f float64) {
	var ok bool
	if e.b, ok = fastjson.AppendFloat64(e.b, f); !ok {
		e.bad = true
		e.b = append(e.b, '0')
	}
}

// appendPrediction encodes p exactly as json.Marshal does: fields in
// declaration order, omitempty honored.
func appendPrediction(e *jenc, p *Prediction) {
	e.raw(`{"path":`)
	e.str(p.Path)
	e.raw(`,"observations":`)
	e.u64(p.Observations)
	if p.Best != "" {
		e.raw(`,"best":`)
		e.str(p.Best)
	}
	if p.BestForecastBps != 0 {
		e.raw(`,"best_forecast_bps":`)
		e.f64(p.BestForecastBps)
	}
	if p.FB != nil {
		e.raw(`,"fb":{"rtt_s":`)
		e.f64(p.FB.RTTSeconds)
		e.raw(`,"loss_rate":`)
		e.f64(p.FB.LossRate)
		e.raw(`,"avail_bw_bps":`)
		e.f64(p.FB.AvailBwBps)
		e.raw(`,"measurement_age":`)
		e.u64(p.FB.MeasurementAge)
		if p.FB.Stale {
			e.raw(`,"stale":true`)
		}
		e.raw("}")
	}
	if p.Family != "" {
		e.raw(`,"family":`)
		e.str(p.Family)
	}
	if p.P10Bps != 0 {
		e.raw(`,"p10_bps":`)
		e.f64(p.P10Bps)
	}
	if p.P50Bps != 0 {
		e.raw(`,"p50_bps":`)
		e.f64(p.P50Bps)
	}
	if p.P90Bps != 0 {
		e.raw(`,"p90_bps":`)
		e.f64(p.P90Bps)
	}
	if len(p.Families) > 0 {
		e.raw(`,"families":[`)
		for i := range p.Families {
			if i > 0 {
				e.raw(",")
			}
			f := &p.Families[i]
			e.raw(`{"name":`)
			e.str(f.Name)
			e.raw(`,"ready":`)
			e.bln(f.Ready)
			e.raw(`,"forecast_bps":`)
			e.f64(f.ForecastBps)
			if f.P10Bps != 0 {
				e.raw(`,"p10_bps":`)
				e.f64(f.P10Bps)
			}
			if f.P50Bps != 0 {
				e.raw(`,"p50_bps":`)
				e.f64(f.P50Bps)
			}
			if f.P90Bps != 0 {
				e.raw(`,"p90_bps":`)
				e.f64(f.P90Bps)
			}
			e.raw(`,"rmsre":`)
			e.f64(f.RMSRE)
			e.raw(`,"error_count":`)
			e.i64(int64(f.ErrorCount))
			e.raw(`,"regret":`)
			e.f64(f.Regret)
			e.raw("}")
		}
		e.raw("]")
	}
	e.raw("}")
}

// decodeObserveFields decodes one ObserveRequest-shaped object from d
// into wc.path / the returned throughput, with encoding/json's field
// semantics (keys matched as fastjson.KeyMatches does, null no-ops,
// duplicate keys last-wins, unknown fields skipped but validated). Resets
// wc.path first, so batch items never inherit the previous item's path.
func decodeObserveFields(d *fastjson.Dec, wc *wireCtx) (tput float64, err error) {
	wc.path = wc.path[:0]
	err = d.Object(func(key []byte) error {
		switch {
		case fastjson.KeyMatches(key, "path"):
			if d.Null() {
				return nil
			}
			s, err := d.Str()
			if err != nil {
				return err
			}
			wc.setPath(s)
		case fastjson.KeyMatches(key, "throughput_bps"):
			if d.Null() {
				return nil
			}
			f, err := d.Float64()
			if err != nil {
				return err
			}
			tput = f
		default:
			return d.Skip()
		}
		return nil
	})
	return tput, err
}

// writeWire writes a JSON body and the trailing newline every JSON reply
// ends with.
func writeWire(w http.ResponseWriter, status int, body []byte) int {
	setJSON(w)
	w.WriteHeader(status)
	w.Write(body)
	w.Write(wireNL)
	return status
}

var wireNL = []byte("\n")

func (r *Server) handleObserveFast(w http.ResponseWriter, req *http.Request) int {
	wc := getWire()
	defer putWire(wc)
	if err := wc.readBody(req); err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	wc.dec.Reset(wc.body)
	tput, err := decodeObserveFields(&wc.dec, wc)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if len(wc.path) == 0 {
		return writePre(w, http.StatusBadRequest, errBodyMissingPath)
	}
	if !ValidObservation(tput) {
		r.metrics.rejectedInputs.Add(1)
		return writePre(w, http.StatusBadRequest, errBodyBadThroughput)
	}
	var n uint64
	r.reg.WithBytes(wc.path, true, func(s *Session) { n = s.Observe(tput) })
	r.metrics.observations.Add(1)
	e := jenc{b: wc.out[:0]}
	e.raw(`{"path":`)
	e.strb(wc.path)
	e.raw(`,"observations":`)
	e.u64(n)
	e.raw("}")
	wc.out = e.b
	return writeWire(w, http.StatusOK, wc.out)
}

func (r *Server) handleMeasureFast(w http.ResponseWriter, req *http.Request) int {
	wc := getWire()
	defer putWire(wc)
	if err := wc.readBody(req); err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	wc.dec.Reset(wc.body)
	wc.path = wc.path[:0]
	var rtt, loss, availBw float64
	d := &wc.dec
	err := d.Object(func(key []byte) error {
		var dst *float64
		switch {
		case fastjson.KeyMatches(key, "path"):
			if d.Null() {
				return nil
			}
			s, err := d.Str()
			if err != nil {
				return err
			}
			wc.setPath(s)
			return nil
		case fastjson.KeyMatches(key, "rtt_s"):
			dst = &rtt
		case fastjson.KeyMatches(key, "loss_rate"):
			dst = &loss
		case fastjson.KeyMatches(key, "avail_bw_bps"):
			dst = &availBw
		default:
			return d.Skip()
		}
		if d.Null() {
			return nil
		}
		f, err := d.Float64()
		if err != nil {
			return err
		}
		*dst = f
		return nil
	})
	if err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if len(wc.path) == 0 {
		return writePre(w, http.StatusBadRequest, errBodyMissingPath)
	}
	in := predict.FBInputs{RTT: rtt, LossRate: loss, AvailBw: availBw}
	if !ValidMeasurement(in) {
		r.metrics.rejectedInputs.Add(1)
		return writePre(w, http.StatusBadRequest, errBodyBadMeasurement)
	}
	var f float64
	r.reg.WithBytes(wc.path, true, func(s *Session) { f = s.SetMeasurement(in) })
	e := jenc{b: wc.out[:0]}
	e.raw(`{"path":`)
	e.strb(wc.path)
	e.raw(`,"forecast_bps":`)
	e.f64(f)
	e.raw("}")
	wc.out = e.b
	if e.bad {
		return writeEncodingFailure(w)
	}
	return writeWire(w, http.StatusOK, wc.out)
}

func (r *Server) handlePredictFast(w http.ResponseWriter, req *http.Request) int {
	wc := getWire()
	defer putWire(wc)
	if !queryPath(req.URL.RawQuery, wc) || len(wc.path) == 0 {
		return writePre(w, http.StatusBadRequest, errBodyMissingPathQ)
	}
	if !r.reg.WithBytes(wc.path, false, func(s *Session) { s.PredictInto(&wc.pred, &wc.fb) }) {
		return writeError(w, http.StatusNotFound, "unknown path %q", wc.path)
	}
	r.metrics.predictions.Add(1)
	p := &wc.pred
	if p.FB != nil && p.FB.Stale {
		r.metrics.stalePredictions.Add(1)
	}
	if p.Family != "" {
		r.metrics.recordSelection(p.Family)
	}
	e := jenc{b: wc.out[:0]}
	appendPrediction(&e, p)
	wc.out = e.b
	if e.bad {
		return writeEncodingFailure(w)
	}
	return writeWire(w, http.StatusOK, wc.out)
}

func (r *Server) handleObserveBatchFast(w http.ResponseWriter, req *http.Request) int {
	wc := getWire()
	defer putWire(wc)
	if err := wc.readBody(req); err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	d := &wc.dec
	d.Reset(wc.body)
	// Pass 1: validate the whole document and count items, recording
	// where the (last, as json's duplicate-key rule has it) observations
	// array starts — nothing is applied until the batch as a whole is
	// known to be well-formed and under the item cap, exactly like the
	// oracle's decode-then-apply.
	count, arrStart, arrays := 0, -1, 0
	err := d.Object(func(key []byte) error {
		if !fastjson.KeyMatches(key, "observations") {
			return d.Skip()
		}
		start := d.Pos()
		n := 0
		if err := d.Array(func() error {
			n++
			_, err := decodeObserveFields(d, wc)
			return err
		}); err != nil {
			return err
		}
		count, arrStart, arrays = n, start, arrays+1
		return nil
	})
	if err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if count > maxBatchItems {
		return writeError(w, http.StatusBadRequest, "batch of %d observations exceeds the %d-item cap", count, maxBatchItems)
	}
	accepted, rejected := 0, 0
	apply := func(path []byte, tput float64) {
		if len(path) == 0 || !ValidObservation(tput) {
			r.metrics.rejectedInputs.Add(1)
			rejected++
			return
		}
		r.reg.WithBytes(path, true, func(s *Session) { s.Observe(tput) })
		r.metrics.observations.Add(1)
		accepted++
	}
	if arrays > 1 {
		// encoding/json decodes a repeated observations array into the
		// slice the one before left, so an item keeps whatever fields it
		// does not set from the item at its index there, or further back
		// in that slice's spare capacity. Only json itself gives the same
		// items.
		var body ObserveBatchRequest
		if err := json.NewDecoder(bytes.NewReader(wc.body)).Decode(&body); err != nil {
			return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		}
		for _, ob := range body.Observations {
			apply([]byte(ob.Path), ob.ThroughputBps)
		}
	} else if arrStart >= 0 {
		// Pass 2: stream the items straight into the registry — no
		// 4096-element slice is ever materialized.
		d.Seek(arrStart)
		if err := d.Array(func() error {
			tput, err := decodeObserveFields(d, wc)
			if err == nil {
				apply(wc.path, tput)
			}
			return err
		}); err != nil {
			// Unreachable: pass 1 validated this region.
			return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		}
	}
	e := jenc{b: wc.out[:0]}
	e.raw(`{"accepted":`)
	e.i64(int64(accepted))
	e.raw(`,"rejected":`)
	e.i64(int64(rejected))
	e.raw("}")
	wc.out = e.b
	return writeWire(w, http.StatusOK, wc.out)
}

func (r *Server) handlePredictBatchFast(w http.ResponseWriter, req *http.Request) int {
	wc := getWire()
	defer putWire(wc)
	if err := wc.readBody(req); err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	d := &wc.dec
	d.Reset(wc.body)
	// Pass 1: validate and count (see handleObserveBatchFast).
	count, arrStart, arrays := 0, -1, 0
	err := d.Object(func(key []byte) error {
		if !fastjson.KeyMatches(key, "paths") {
			return d.Skip()
		}
		start := d.Pos()
		n := 0
		if err := d.Array(func() error {
			n++
			if d.Null() {
				return nil
			}
			_, err := d.Str()
			return err
		}); err != nil {
			return err
		}
		count, arrStart, arrays = n, start, arrays+1
		return nil
	})
	if err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if count > maxBatchItems {
		return writeError(w, http.StatusBadRequest, "batch of %d paths exceeds the %d-item cap", count, maxBatchItems)
	}
	// Pass 2: stream one prediction per known path directly into the
	// response buffer; unknown paths accumulate pre-encoded in wc.miss.
	e := jenc{b: wc.out[:0]}
	e.raw(`{"predictions":`)
	npred, nmiss := 0, 0
	wc.miss = wc.miss[:0]
	predict := func(path []byte) {
		if !r.reg.WithBytes(path, false, func(s *Session) { s.PredictInto(&wc.pred, &wc.fb) }) {
			if nmiss > 0 {
				wc.miss = append(wc.miss, ',')
			}
			wc.miss = fastjson.AppendStringBytes(wc.miss, path)
			nmiss++
			return
		}
		r.metrics.predictions.Add(1)
		p := &wc.pred
		if p.FB != nil && p.FB.Stale {
			r.metrics.stalePredictions.Add(1)
		}
		if p.Family != "" {
			r.metrics.recordSelection(p.Family)
		}
		if npred == 0 {
			e.raw("[")
		} else {
			e.raw(",")
		}
		appendPrediction(&e, p)
		npred++
	}
	if arrays > 1 {
		// encoding/json decodes a repeated paths array into the slice the
		// one before left, so a null keeps the path at its index there
		// (see handleObserveBatchFast). Only json itself gives the same
		// paths.
		var body PredictBatchRequest
		if err := json.NewDecoder(bytes.NewReader(wc.body)).Decode(&body); err != nil {
			return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		}
		for _, path := range body.Paths {
			predict([]byte(path))
		}
	} else if arrStart >= 0 {
		d.Seek(arrStart)
		if err := d.Array(func() error {
			wc.path = wc.path[:0]
			if !d.Null() {
				s, err := d.Str()
				if err != nil {
					return err
				}
				wc.setPath(s)
			}
			predict(wc.path)
			return nil
		}); err != nil {
			return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		}
	}
	if npred == 0 {
		// json.Marshal renders the never-appended nil slice as null.
		e.raw("null")
	} else {
		e.raw("]")
	}
	if nmiss > 0 {
		e.raw(`,"missing":[`)
		e.b = append(e.b, wc.miss...)
		e.raw("]")
	}
	e.raw("}")
	wc.out = e.b
	if e.bad {
		return writeEncodingFailure(w)
	}
	return writeWire(w, http.StatusOK, wc.out)
}

// queryPath extracts the "path" query parameter into wc.path with
// url.ParseQuery's exact semantics — first valid pair wins, segments
// with semicolons or bad percent-escapes are skipped, '+' decodes to
// space — without building the url.Values map. Reports whether a valid
// "path" key was found.
func queryPath(raw string, wc *wireCtx) bool {
	for len(raw) > 0 {
		var seg string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			seg, raw = raw[:i], raw[i+1:]
		} else {
			seg, raw = raw, ""
		}
		if seg == "" || strings.IndexByte(seg, ';') >= 0 {
			continue
		}
		key, value := seg, ""
		if i := strings.IndexByte(seg, '='); i >= 0 {
			key, value = seg[:i], seg[i+1:]
		}
		if strings.IndexByte(key, '%') >= 0 || strings.IndexByte(key, '+') >= 0 {
			kb, ok := unescapeQuery(wc.path[:0], key)
			wc.path = kb[:0:cap(kb)]
			if !ok || string(kb) != "path" {
				continue
			}
		} else if key != "path" {
			continue
		}
		vb, ok := unescapeQuery(wc.path[:0], value)
		if !ok {
			continue
		}
		wc.path = vb
		return true
	}
	wc.path = wc.path[:0]
	return false
}

// unescapeQuery appends the query-unescaped form of s to dst, decoding
// %XX and '+'. ok is false on a malformed escape (the pair is skipped,
// as url.ParseQuery does).
func unescapeQuery(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '%':
			if i+2 >= len(s) {
				return dst, false
			}
			hi, ok1 := unhex(s[i+1])
			lo, ok2 := unhex(s[i+2])
			if !ok1 || !ok2 {
				return dst, false
			}
			dst = append(dst, hi<<4|lo)
			i += 2
		case '+':
			dst = append(dst, ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst, true
}

func unhex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
