package tcpmodel

import "math"

// This file models short-transfer latency in the spirit of Cardwell,
// Savage & Anderson ("Modeling TCP latency", INFOCOM 2000), which the
// paper points to for transfers too short to neglect slow start (§4.2.7,
// and Arlitt et al.'s FB predictor for short flows).
//
// The model composes the expected transfer time of d segments from
//
//  1. an initial slow-start phase delivering E[d_ss] segments (paper's
//     §4.2.7 formula) with the window growing by factor γ = 1 + 1/b per
//     round trip from an initial window of initialWindow segments, capped
//     at Wmax,
//  2. a steady-state phase delivering the remainder at the PFTK rate.

// initialWindow is w0, the window in segments of slow start's first round
// trip: 2, the value the paper's §4.2.7 model starts from.
const initialWindow = 2

// slowStartRounds returns the number of round trips slow start needs to
// deliver dss segments starting from w0 with growth factor gamma, and the
// window reached. Standard geometric-series inversion from Cardwell et al.
func slowStartRounds(dss, w0, gamma, wmax float64) (rounds, wFinal float64) {
	if dss <= 0 {
		return 0, w0
	}
	if gamma <= 1 {
		// Degenerate: linear growth; treat as one segment per round.
		return dss / w0, w0
	}
	// Segments delivered in r rounds: w0·(γ^r − 1)/(γ − 1).
	// Solve for r, capping the window at wmax.
	if wmax > w0 {
		// Rounds until the cap is reached.
		rCap := math.Log(wmax/w0) / math.Log(gamma)
		dAtCap := w0 * (math.Pow(gamma, rCap) - 1) / (gamma - 1)
		if dss <= dAtCap {
			r := math.Log(dss*(gamma-1)/w0+1) / math.Log(gamma)
			return r, w0 * math.Pow(gamma, r)
		}
		// Remaining segments stream at the capped window, one window per
		// round.
		rem := dss - dAtCap
		return rCap + rem/wmax, wmax
	}
	return dss / wmax, wmax
}

// ShortTransferTime returns the expected time (seconds) to transfer d
// segments, including the initial slow start. It degrades to d·M/PFTK
// for large d.
func ShortTransferTime(p Params, d int64) float64 {
	if d <= 0 {
		return 0
	}
	gamma := 1 + 1/p.b()
	wmax := p.Wmax
	if wmax <= 0 {
		wmax = math.Inf(1)
	}

	dss := SlowStartSegments(p.Loss, d)
	if dss > float64(d) {
		dss = float64(d)
	}
	rounds, _ := slowStartRounds(dss, initialWindow, gamma, wmax)
	t := rounds * p.RTT

	rest := float64(d) - dss
	if rest > 0 {
		rate := PFTK(p) // bytes/s
		if math.IsInf(rate, 1) {
			// Lossless and uncapped: stream at one window per RTT.
			w := wmax
			if math.IsInf(w, 1) {
				w = float64(d) // effectively instantaneous after slow start
			}
			t += rest / w * p.RTT
		} else {
			t += rest * float64(p.MSS) / rate
		}
	}
	return t
}

// ShortTransferThroughput returns the expected average throughput in
// bytes/s of a d-segment transfer.
func ShortTransferThroughput(p Params, d int64) float64 {
	t := ShortTransferTime(p, d)
	if t <= 0 {
		return 0
	}
	return float64(d) * float64(p.MSS) / t
}
