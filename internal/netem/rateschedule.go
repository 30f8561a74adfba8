package netem

import "sort"

// RateStep is one knot of a RateSchedule: from time T onward the link
// runs at Mult × its nominal capacity, until the next step.
type RateStep struct {
	T    float64 // virtual time the step takes effect, seconds
	Mult float64 // capacity multiplier from T onward
}

// RateSchedule drives a variable-rate link — the cellular/wireless regime
// where the serving rate itself moves (fading, scheduler shares, handover)
// rather than the queue in front of a fixed pipe. It is a piecewise-
// constant capacity multiplier sampled at each packet's transmission
// start; contrast LoadProcess, which modulates offered cross-traffic load
// against a fixed capacity. Steps must be sorted by T ascending.
type RateSchedule struct {
	Steps []RateStep
}

// rateFloor keeps a mis-built schedule from stalling the link forever: a
// zero or negative multiplier would make the transmission time infinite
// and wedge the queue.
const rateFloor = 1e-3

// At returns the capacity multiplier in effect at time t: the last step
// with T ≤ t, or 1 before the first step (and for an empty schedule).
func (r *RateSchedule) At(t float64) float64 {
	if r == nil || len(r.Steps) == 0 {
		return 1
	}
	// sort.Search finds the first step with T > t; the one before it rules.
	i := sort.Search(len(r.Steps), func(i int) bool { return r.Steps[i].T > t })
	if i == 0 {
		return 1
	}
	m := r.Steps[i-1].Mult
	if m < rateFloor {
		return rateFloor
	}
	return m
}
