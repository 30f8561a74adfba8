package predict

import "math"

// ECMConfig tunes the Empirical Conditional Method predictor.
type ECMConfig struct {
	// bucketCap bounds the samples retained per conditioning bucket
	// (default 64).
	bucketCap int
	// globalCap bounds the unconditional fallback ring (default 128).
	globalCap int
	// minBucket is the minimum samples a bucket needs before it is
	// preferred over the global distribution (default 5).
	minBucket int
}

func (c ECMConfig) defaults() ECMConfig {
	if c.bucketCap <= 0 {
		c.bucketCap = 64
	}
	if c.globalCap <= 0 {
		c.globalCap = 128
	}
	if c.minBucket <= 0 {
		c.minBucket = 5
	}
	return c
}

// ecmKey identifies one conditioning bucket: log-scale bins of the path
// measurements that Zheng's ECM conditions on. Small integer fields keep
// the key comparable and cheap to hash.
type ecmKey struct {
	RTT  int8 // floor(log2(RTT in ms)), clamped; -1 when unknown
	Loss int8 // floor(log10(loss rate)) in [-5,-1]; 0 = lossless
	ABW  int8 // floor(log2(avail-bw in Mbps)), clamped; -20 when unknown
}

// ECM is the Empirical Conditional Method predictor (Zheng et al.): it
// buckets the conditioning variables (loss rate, RTT, available
// bandwidth) on log scales, keeps a bounded ring of observed throughputs
// per bucket plus an unconditional fallback ring, and predicts from the
// empirical distribution of the matching bucket, its median the forecast.
//
// Like Regression, its outputs are guarded: forecasts are drawn from
// observed (positive, finite) samples only, so no ≤0 or ±Inf value can
// reach rolling error windows.
type ECM struct {
	cfg ECMConfig

	cond    ecmKey
	hasCond bool

	buckets map[ecmKey]*orderedRing
	global  orderedRing
}

// NewECM returns an Empirical Conditional Method predictor.
func NewECM(cfg ECMConfig) *ECM {
	cfg = cfg.defaults()
	return &ECM{
		cfg:     cfg,
		buckets: make(map[ecmKey]*orderedRing),
		global:  newOrderedRing(cfg.globalCap),
	}
}

// Name implements HB.
func (e *ECM) Name() string { return "ECM" }

// SetConditions supplies the conditioning measurements for subsequent
// Observe/Predict calls.
func (e *ECM) SetConditions(in FBInputs) {
	e.cond = bucketKey(in)
	e.hasCond = true
}

// Observe implements HB. Non-positive or non-finite samples are
// rejected so the retained distributions stay finite and positive.
func (e *ECM) Observe(x float64) {
	if !isFinitePositive(x) {
		return
	}
	e.global.push(x)
	if !e.hasCond {
		return
	}
	r := e.buckets[e.cond]
	if r == nil {
		nr := newOrderedRing(e.cfg.bucketCap)
		r = &nr
		e.buckets[e.cond] = r
	}
	r.push(x)
}

// ring returns the distribution Predict draws from: the conditioning
// bucket when it has enough mass, else the global fallback.
func (e *ECM) ring() *orderedRing {
	if e.hasCond {
		if r := e.buckets[e.cond]; r != nil && r.count() >= e.cfg.minBucket {
			return r
		}
	}
	return &e.global
}

// Predict implements HB: the forecast is the empirical median of the
// selected distribution, read off its ring's ascending mirror.
func (e *ECM) Predict() (float64, bool) {
	r := e.ring()
	if r.count() == 0 {
		return 0, false
	}
	return percentileSorted(r.sorted, 0.50), true
}

// Reset implements HB.
func (e *ECM) Reset() {
	e.buckets = make(map[ecmKey]*orderedRing)
	e.global.reset()
	e.hasCond = false
}

// The bins bucketKey clamps each conditioning variable to, and the key
// value of an unknown (non-positive) one.
const (
	rttBinMin, rttBinMax, rttUnknown = 0, 12, -1
	lossBinMin, lossBinMax, lossNone = -5, -1, 0
	abwBinMin, abwBinMax, abwUnknown = -4, 14, -20
)

// bucketKey bins the conditioning variables on log scales.
func bucketKey(in FBInputs) ecmKey {
	k := ecmKey{RTT: rttUnknown, Loss: lossNone, ABW: abwUnknown}
	if in.RTT > 0 {
		k.RTT = clampInt8(int(math.Floor(math.Log2(in.RTT*1000))), rttBinMin, rttBinMax)
	}
	if in.LossRate > 0 {
		k.Loss = clampInt8(int(math.Floor(math.Log10(in.LossRate))), lossBinMin, lossBinMax)
	}
	if in.AvailBw > 0 {
		k.ABW = clampInt8(int(math.Floor(math.Log2(in.AvailBw/1e6))), abwBinMin, abwBinMax)
	}
	return k
}

func clampInt8(v, lo, hi int) int8 {
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return int8(v)
}
