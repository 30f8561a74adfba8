package predsvc

import (
	"net/http"

	"repro/internal/predict"
)

// The reflection-based encoding/json handlers for the five hot endpoints:
// the reference implementation the wire fastpath (wire.go) is held
// byte-identical to by wire_compat_test, wire_digest_test and
// wire_bench_test. They share the request types, validation helpers and
// accounting with the production handlers and differ only in how bytes
// become values and back.

// ObserveResponse acknowledges an observation.
type ObserveResponse struct {
	Path         string `json:"path"`
	Observations uint64 `json:"observations"`
}

// MeasureResponse returns the FB forecast for the installed measurements.
type MeasureResponse struct {
	Path        string  `json:"path"`
	ForecastBps float64 `json:"forecast_bps"`
}

// PredictBatchResponse carries one Prediction per known path, in request
// order, with unknown paths listed separately (a batch is not failed by
// a 404-worthy member).
type PredictBatchResponse struct {
	Predictions []Prediction `json:"predictions"`
	Missing     []string     `json:"missing,omitempty"`
}

// Predict is PredictInto into fresh memory.
func (s *Session) Predict() Prediction {
	var p Prediction
	s.PredictInto(&p, &FBState{})
	return p
}

// openOracle builds a server whose hot endpoints are served by the
// oracle handlers; every other route falls through to the production
// mux, so both servers sit behind the same middleware.
func openOracle(cfg Config) (*Server, error) {
	s, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	production := s.mux
	s.mux = http.NewServeMux()
	s.mux.Handle("POST /v1/observe", s.instrument(epObserve, s.handleObserve))
	s.mux.Handle("POST /v1/measure", s.instrument(epMeasure, s.handleMeasure))
	s.mux.Handle("GET /v1/predict", s.instrument(epPredict, s.handlePredict))
	s.mux.Handle("POST /v1/observe-batch", s.instrument(epObserveBatch, s.handleObserveBatch))
	s.mux.Handle("POST /v1/predict-batch", s.instrument(epPredictBatch, s.handlePredictBatch))
	s.mux.Handle("/", production)
	return s, nil
}

func (r *Server) handleObserve(w http.ResponseWriter, req *http.Request) int {
	var body ObserveRequest
	if err := decodeBody(w, req, &body); err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if body.Path == "" {
		return writeError(w, http.StatusBadRequest, "missing path")
	}
	if !ValidObservation(body.ThroughputBps) {
		r.metrics.rejectedInputs.Add(1)
		return writeError(w, http.StatusBadRequest, "throughput_bps must be finite and positive")
	}
	n := r.reg.GetOrCreate(body.Path).Observe(body.ThroughputBps)
	r.metrics.observations.Add(1)
	return writeJSON(w, http.StatusOK, ObserveResponse{Path: body.Path, Observations: n})
}

func (r *Server) handleMeasure(w http.ResponseWriter, req *http.Request) int {
	var body MeasureRequest
	if err := decodeBody(w, req, &body); err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if body.Path == "" {
		return writeError(w, http.StatusBadRequest, "missing path")
	}
	in := predict.FBInputs{
		RTT:      body.RTTSeconds,
		LossRate: body.LossRate,
		AvailBw:  body.AvailBwBps,
	}
	if !ValidMeasurement(in) {
		r.metrics.rejectedInputs.Add(1)
		return writeError(w, http.StatusBadRequest, "measurements must be finite and in range")
	}
	f := r.reg.GetOrCreate(body.Path).SetMeasurement(in)
	return writeJSON(w, http.StatusOK, MeasureResponse{Path: body.Path, ForecastBps: f})
}

func (r *Server) handlePredict(w http.ResponseWriter, req *http.Request) int {
	path := req.URL.Query().Get("path")
	if path == "" {
		return writeError(w, http.StatusBadRequest, "missing path query parameter")
	}
	sess, ok := r.reg.Lookup(path)
	if !ok {
		return writeError(w, http.StatusNotFound, "unknown path %q", path)
	}
	r.metrics.predictions.Add(1)
	p := sess.Predict()
	if p.FB != nil && p.FB.Stale {
		r.metrics.stalePredictions.Add(1)
	}
	if p.Family != "" {
		r.metrics.recordSelection(p.Family)
	}
	return writeJSON(w, http.StatusOK, p)
}

func (r *Server) handleObserveBatch(w http.ResponseWriter, req *http.Request) int {
	var body ObserveBatchRequest
	if err := decodeBody(w, req, &body); err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if len(body.Observations) > maxBatchItems {
		return writeError(w, http.StatusBadRequest, "batch of %d observations exceeds the %d-item cap", len(body.Observations), maxBatchItems)
	}
	var resp ObserveBatchResponse
	for _, ob := range body.Observations {
		if ob.Path == "" || !ValidObservation(ob.ThroughputBps) {
			r.metrics.rejectedInputs.Add(1)
			resp.Rejected++
			continue
		}
		r.reg.GetOrCreate(ob.Path).Observe(ob.ThroughputBps)
		r.metrics.observations.Add(1)
		resp.Accepted++
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (r *Server) handlePredictBatch(w http.ResponseWriter, req *http.Request) int {
	var body PredictBatchRequest
	if err := decodeBody(w, req, &body); err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if len(body.Paths) > maxBatchItems {
		return writeError(w, http.StatusBadRequest, "batch of %d paths exceeds the %d-item cap", len(body.Paths), maxBatchItems)
	}
	var resp PredictBatchResponse
	for _, path := range body.Paths {
		sess, ok := r.reg.Lookup(path)
		if !ok {
			resp.Missing = append(resp.Missing, path)
			continue
		}
		r.metrics.predictions.Add(1)
		p := sess.Predict()
		if p.FB != nil && p.FB.Stale {
			r.metrics.stalePredictions.Add(1)
		}
		if p.Family != "" {
			r.metrics.recordSelection(p.Family)
		}
		resp.Predictions = append(resp.Predictions, p)
	}
	return writeJSON(w, http.StatusOK, resp)
}
