// Package tcpmodel implements the analytic TCP throughput models the paper
// builds its Formula-Based predictors on:
//
//   - the Mathis/Semke/Mahdavi "square-root" formula (paper Eq. 1),
//   - the PFTK model of Padhye/Firoiu/Towsley/Kurose (paper Eq. 2),
//   - the revised PFTK model of Chen/Bu/Ammar/Towsley (paper §4.2.9),
//   - Cardwell et al.'s expected slow-start transfer size (paper §4.2.7).
//
// All models return expected throughput in bytes per second given loss
// rate, RTT in seconds, and segment size in bytes. Callers converting to
// bits multiply by 8.
package tcpmodel

import "math"

// Params collects the inputs common to the formulas.
type Params struct {
	MSS  int     // segment size M, bytes
	RTT  float64 // round-trip time T, seconds
	Loss float64 // loss (event) rate p, in [0, 1]
	B    int     // segments acknowledged per ACK (2 with delayed ACKs)
	RTO  float64 // retransmission timeout T0, seconds (PFTK only)
	Wmax float64 // maximum window, segments (0 = unlimited)
}

func (p Params) b() float64 {
	if p.B <= 0 {
		return 2
	}
	return float64(p.B)
}

// Mathis returns the square-root model's expected throughput in bytes/s
// (paper Eq. 1):
//
//	E[R] = M / (T * sqrt(2bp/3))
//
// It is undefined for p = 0; Mathis returns +Inf in that case so callers
// can apply their own window cap.
func Mathis(p Params) float64 {
	if p.RTT <= 0 {
		return math.Inf(1)
	}
	if p.Loss <= 0 {
		return math.Inf(1)
	}
	return float64(p.MSS) / (p.RTT * math.Sqrt(2*p.b()*p.Loss/3))
}

// PFTK returns the full PFTK model's expected throughput in bytes/s (paper
// Eq. 2):
//
//	E[R] = min( M / (T*sqrt(2bp/3) + T0*min(1, 3*sqrt(3bp/8))*p*(1+32p²)),  W/T )
//
// For p = 0 the congestion term vanishes and the window term W/T applies
// (or +Inf when no window cap is given).
func PFTK(p Params) float64 {
	windowTerm := math.Inf(1)
	if p.Wmax > 0 && p.RTT > 0 {
		windowTerm = p.Wmax * float64(p.MSS) / p.RTT
	}
	if p.Loss <= 0 || p.RTT <= 0 {
		return windowTerm
	}
	b := p.b()
	denom := p.RTT*math.Sqrt(2*b*p.Loss/3) +
		p.RTO*math.Min(1, 3*math.Sqrt(3*b*p.Loss/8))*p.Loss*(1+32*p.Loss*p.Loss)
	if denom <= 0 {
		return windowTerm
	}
	return math.Min(float64(p.MSS)/denom, windowTerm)
}

// PFTKPaper is PFTK exactly as printed in the paper's Eq. (2), where the
// timeout term uses min(1, sqrt(3bp/8)) without the factor of 3 that the
// original PFTK paper carries. The difference is small for small p; both
// variants are provided so the reproduction can quantify it.
func PFTKPaper(p Params) float64 {
	windowTerm := math.Inf(1)
	if p.Wmax > 0 && p.RTT > 0 {
		windowTerm = p.Wmax * float64(p.MSS) / p.RTT
	}
	if p.Loss <= 0 || p.RTT <= 0 {
		return windowTerm
	}
	b := p.b()
	denom := p.RTT*math.Sqrt(2*b*p.Loss/3) +
		p.RTO*math.Min(1, math.Sqrt(3*b*p.Loss/8))*p.Loss*(1+32*p.Loss*p.Loss)
	if denom <= 0 {
		return windowTerm
	}
	return math.Min(float64(p.MSS)/denom, windowTerm)
}

// RevisedPFTK implements the corrected PFTK model of Chen, Bu, Ammar &
// Towsley ("Comments on modeling TCP Reno performance", ToN 2005). The
// correction replaces the congestion-avoidance window evolution with
//
//	E[W] = 2+b/(3b) + sqrt( 8(1-p)/(3bp) + ((2+b)/(3b))² )
//
// and rederives the send rate accordingly:
//
//	E[R] = M * ( (1-p)/p + E[W]/2 + Q(E[W]) ) /
//	       ( T*(b/2*E[W] + 1) + Q(E[W])*T0*f(p)/(1-p) )
//
// where Q(w) = min(1, 3/w) is the probability a loss window ends in
// timeout and f(p) = 1+p+2p²+4p³+8p⁴+16p⁵+32p⁶.
func RevisedPFTK(p Params) float64 {
	windowTerm := math.Inf(1)
	if p.Wmax > 0 && p.RTT > 0 {
		windowTerm = p.Wmax * float64(p.MSS) / p.RTT
	}
	if p.Loss <= 0 || p.RTT <= 0 {
		return windowTerm
	}
	b := p.b()
	pl := p.Loss
	c := (2 + b) / (3 * b)
	ew := c + math.Sqrt(8*(1-pl)/(3*b*pl)+c*c)
	q := math.Min(1, 3/ew)
	fp := 1 + pl + 2*pl*pl + 4*math.Pow(pl, 3) + 8*math.Pow(pl, 4) + 16*math.Pow(pl, 5) + 32*math.Pow(pl, 6)
	num := (1-pl)/pl + ew/2 + q
	den := p.RTT*(b/2*ew+1) + q*p.RTO*fp/(1-pl)
	if den <= 0 {
		return windowTerm
	}
	rate := float64(p.MSS) * num / den
	return math.Min(rate, windowTerm)
}

// SlowStartSegments returns Cardwell et al.'s expected number of segments
// transferred during the initial slow start, for loss rate p and a total
// transfer of d segments (paper §4.2.7):
//
//	E[d_ss] = (1-(1-p)^d)(1-p)/p + 1
//
// For p = 0 it returns d (the whole transfer can ride slow start).
func SlowStartSegments(p float64, d int64) float64 {
	if d <= 0 {
		return 0
	}
	if p <= 0 {
		return float64(d)
	}
	return (1-math.Pow(1-p, float64(d)))*(1-p)/p + 1
}
