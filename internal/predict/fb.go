// Package predict implements the paper's two classes of TCP throughput
// predictors.
//
// Formula-Based (FB) prediction (paper §3) plugs a-priori path measurements
// into a TCP throughput model:
//
//	R̂ = min( PFTK(T̂, p̂, T̂0, W), W/T̂ )   if p̂ > 0
//	R̂ = min( W/T̂, Â )                     if p̂ = 0
//
// with T̂0 = max(1 s, 2·SRTT), SRTT = T̂ (paper Eq. 3).
//
// History-Based (HB) prediction (paper §5) forecasts from previous transfer
// throughputs on the same path using simple linear predictors — Moving
// Average, EWMA, non-seasonal Holt-Winters — optionally wrapped with the
// LSO heuristics: restart on detected level shifts, discard detected
// outliers.
//
// Symbols follow the paper's Table 1: T̂/p̂ are RTT/loss measured by
// periodic probing before the flow, T̃/p̃ during the flow, T/p what the flow
// itself experiences, R actual throughput, R̂ predicted, Â avail-bw prior
// to the flow, W the maximum window.
package predict

import (
	"math"

	"repro/internal/tcpmodel"
)

// Model selects the throughput formula an FB predictor uses.
type Model int

// Model values.
const (
	ModelPFTK        Model = iota // Padhye et al. (paper Eq. 2)
	ModelPFTKPaper                // Eq. 2 exactly as typeset in the paper
	ModelRevisedPFTK              // Chen et al. correction (paper §4.2.9)
	ModelMathis                   // square-root formula (paper Eq. 1)
)

// FBInputs are the a-priori measurements an FB prediction consumes.
type FBInputs struct {
	RTT      float64 `json:"rtt_s"`        // T̂: RTT from periodic probing before the flow, seconds
	LossRate float64 `json:"loss_rate"`    // p̂: loss rate from periodic probing before the flow
	AvailBw  float64 `json:"avail_bw_bps"` // Â: available bandwidth estimate before the flow, bits/s
}

// fbMSS is the segment size of the predicted transfer, bytes.
const fbMSS = 1460

// FBConfig describes the transfer whose throughput is being predicted.
type FBConfig struct {
	Model          Model
	MaxWindowBytes int // W, bytes (default 1 MB)
	B              int // segments per ACK (default 2: delayed ACKs)
}

func (c FBConfig) defaults() FBConfig {
	if c.MaxWindowBytes == 0 {
		c.MaxWindowBytes = 1 << 20
	}
	if c.B == 0 {
		c.B = 2
	}
	return c
}

// FB implements the paper's Eq. (3) predictor.
type FB struct {
	cfg FBConfig
}

// NewFB returns a formula-based predictor.
func NewFB(cfg FBConfig) *FB {
	return &FB{cfg: cfg.defaults()}
}

// RTO returns the paper's pre-flow timeout estimate T̂0 = max(1 s, 2·SRTT)
// with SRTT set to the measured RTT.
func RTO(rtt float64) float64 {
	return math.Max(1, 2*rtt)
}

// Predict returns R̂ in bits per second for the given a-priori
// measurements. A zero RTT yields 0 (no basis for prediction).
func (f *FB) Predict(in FBInputs) float64 {
	if in.RTT <= 0 {
		return 0
	}
	w := float64(f.cfg.MaxWindowBytes)
	windowBps := w * 8 / in.RTT

	if in.LossRate <= 0 {
		// Lossless branch of Eq. (3): min(W/T̂, Â).
		if in.AvailBw > 0 && in.AvailBw < windowBps {
			return in.AvailBw
		}
		return windowBps
	}

	params := tcpmodel.Params{
		MSS:  fbMSS,
		RTT:  in.RTT,
		Loss: in.LossRate,
		B:    f.cfg.B,
		RTO:  RTO(in.RTT),
		Wmax: w / fbMSS,
	}
	var bytesPerSec float64
	switch f.cfg.Model {
	case ModelMathis:
		bytesPerSec = math.Min(tcpmodel.Mathis(params), w/in.RTT)
	case ModelRevisedPFTK:
		bytesPerSec = tcpmodel.RevisedPFTK(params)
	case ModelPFTKPaper:
		bytesPerSec = tcpmodel.PFTKPaper(params)
	default:
		bytesPerSec = tcpmodel.PFTK(params)
	}
	if math.IsInf(bytesPerSec, 1) {
		return windowBps
	}
	return bytesPerSec * 8
}
