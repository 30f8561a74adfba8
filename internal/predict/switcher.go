package predict

import "math"

// SwitcherConfig tunes the stability-aware hybrid switcher.
type SwitcherConfig struct {
	// window is the number of recent samples the stability statistic is
	// computed over (default 16).
	window int
	// covThreshold is the coefficient-of-variation boundary between the
	// "stable" and "volatile" regimes (default 0.25, per Sun et al.'s
	// observation that throughput is highly predictable below ~25%
	// relative variation).
	covThreshold float64
}

func (c SwitcherConfig) defaults() SwitcherConfig {
	if c.window <= 0 {
		c.window = 16
	}
	if c.covThreshold <= 0 {
		c.covThreshold = 0.25
	}
	return c
}

// StabilitySwitcher is the stability-aware hybrid predictor of Sun et
// al.: both inner predictors absorb every observation, and each forecast
// is delegated to the one matching the current regime — `stable` while
// the rolling coefficient of variation of recent samples stays below the
// threshold, `volatile` once it exceeds it. The typical pairing is a
// reactive tracker (EWMA/HW) for stable regimes and a robust smoother
// (wide MA) for volatile ones.
type StabilitySwitcher struct {
	cfg      SwitcherConfig
	stable   HB
	volatile HB

	ring []float64
	next int
	full bool
}

// NewStabilitySwitcher wraps the two inner predictors.
func NewStabilitySwitcher(stable, volatile HB, cfg SwitcherConfig) *StabilitySwitcher {
	cfg = cfg.defaults()
	return &StabilitySwitcher{
		cfg:      cfg,
		stable:   stable,
		volatile: volatile,
		ring:     make([]float64, 0, cfg.window),
	}
}

// Name implements HB.
func (s *StabilitySwitcher) Name() string { return "switcher" }

// Volatile reports whether the current regime is volatile (for tests
// and diagnostics).
func (s *StabilitySwitcher) Volatile() bool {
	return s.cov() > s.cfg.covThreshold
}

// cov returns the coefficient of variation of the retained window
// (0 with fewer than 2 samples). Both passes accumulate in chronological
// order.
func (s *StabilitySwitcher) cov() float64 {
	n := len(s.ring)
	if n < 2 {
		return 0
	}
	var sum float64
	s.forEachChrono(func(v float64) { sum += v })
	mean := sum / float64(n)
	if mean <= 0 {
		return 0
	}
	var ss float64
	s.forEachChrono(func(v float64) {
		d := v - mean
		ss += d * d
	})
	return math.Sqrt(ss/float64(n)) / mean
}

// forEachChrono visits the retained window oldest first.
func (s *StabilitySwitcher) forEachChrono(fn func(float64)) {
	if s.full {
		for _, v := range s.ring[s.next:] {
			fn(v)
		}
		for _, v := range s.ring[:s.next] {
			fn(v)
		}
		return
	}
	for _, v := range s.ring {
		fn(v)
	}
}

// Predict implements HB: delegate to the regime's predictor, falling
// back to the other one while the preferred predictor is not yet ready.
func (s *StabilitySwitcher) Predict() (float64, bool) {
	first, second := s.stable, s.volatile
	if s.Volatile() {
		first, second = s.volatile, s.stable
	}
	if f, ok := first.Predict(); ok {
		return f, true
	}
	return second.Predict()
}

// Observe implements HB.
func (s *StabilitySwitcher) Observe(x float64) {
	if !s.full && len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, x)
		if len(s.ring) == cap(s.ring) {
			s.full = true
			s.next = 0
		}
	} else {
		s.ring[s.next] = x
		s.next = (s.next + 1) % len(s.ring)
	}
	s.stable.Observe(x)
	s.volatile.Observe(x)
}

// Reset implements HB.
func (s *StabilitySwitcher) Reset() {
	s.ring = s.ring[:0]
	s.next = 0
	s.full = false
	s.stable.Reset()
	s.volatile.Reset()
}
