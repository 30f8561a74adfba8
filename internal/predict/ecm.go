package predict

import (
	"fmt"
	"math"
	"sort"
)

// ECMConfig tunes the Empirical Conditional Method predictor.
type ECMConfig struct {
	// BucketCap bounds the samples retained per conditioning bucket
	// (default 64).
	BucketCap int
	// GlobalCap bounds the unconditional fallback ring (default 128).
	GlobalCap int
	// MinBucket is the minimum samples a bucket needs before it is
	// preferred over the global distribution (default 5).
	MinBucket int
}

func (c ECMConfig) defaults() ECMConfig {
	if c.BucketCap <= 0 {
		c.BucketCap = 64
	}
	if c.GlobalCap <= 0 {
		c.GlobalCap = 128
	}
	if c.MinBucket <= 0 {
		c.MinBucket = 5
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
// empirical distribution of the matching bucket — the median as the
// point forecast (HB interface) and native P10/P50/P90 as quantiles
// (QuantilePredictor interface), no residual wrapper needed.
//
// Like Regression, its outputs are guarded: forecasts are drawn from
// observed (positive, finite) samples only, so no ≤0 or ±Inf value can
// reach rolling error windows or snapshots.
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
		global:  newOrderedRing(cfg.GlobalCap),
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

// ClearConditions drops the standing conditioning measurements.
func (e *ECM) ClearConditions() { e.hasCond = false }

// Observe implements HB. Non-positive or non-finite samples are
// rejected so the retained distributions stay JSON-safe.
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
		nr := newOrderedRing(e.cfg.BucketCap)
		r = &nr
		e.buckets[e.cond] = r
	}
	r.push(x)
}

// ring returns the distribution Predict and PredictQuantiles draw from:
// the conditioning bucket when it has enough mass, else the global
// fallback.
func (e *ECM) ring() *orderedRing {
	if e.hasCond {
		if r := e.buckets[e.cond]; r != nil && r.count() >= e.cfg.MinBucket {
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

// PredictQuantiles implements QuantilePredictor.
func (e *ECM) PredictQuantiles() (Quantiles, bool) {
	r := e.ring()
	if r.count() < residualMinSamples {
		return Quantiles{}, false
	}
	return Quantiles{
		P10: percentileSorted(r.sorted, 0.10),
		P50: percentileSorted(r.sorted, 0.50),
		P90: percentileSorted(r.sorted, 0.90),
	}, true
}

// Reset implements HB.
func (e *ECM) Reset() {
	e.buckets = make(map[ecmKey]*orderedRing)
	e.global.reset()
	e.hasCond = false
}

// ECMBucketState is one conditioning bucket's retained samples.
type ECMBucketState struct {
	RTT     int8      `json:"rtt"`
	Loss    int8      `json:"loss"`
	ABW     int8      `json:"abw"`
	Samples []float64 `json:"samples"`
}

// ECMState is the JSON-serializable snapshot of an ECM predictor.
// Buckets are sorted by key so encoding is deterministic.
type ECMState struct {
	Global  []float64        `json:"global,omitempty"`
	Buckets []ECMBucketState `json:"buckets,omitempty"`
}

// State captures the predictor for a snapshot.
func (e *ECM) State() ECMState {
	st := ECMState{Global: e.global.chronological(nil)}
	for k, r := range e.buckets {
		st.Buckets = append(st.Buckets, ECMBucketState{
			RTT: k.RTT, Loss: k.Loss, ABW: k.ABW,
			Samples: r.chronological(nil),
		})
	}
	sort.Slice(st.Buckets, func(i, j int) bool {
		a, b := st.Buckets[i], st.Buckets[j]
		if a.RTT != b.RTT {
			return a.RTT < b.RTT
		}
		if a.Loss != b.Loss {
			return a.Loss < b.Loss
		}
		return a.ABW < b.ABW
	})
	return st
}

// SetState restores a snapshot produced by State, overwriting all
// retained distributions. Conditioning state is not part of the
// snapshot; the serving layer re-derives it from FB inputs on restore.
// It refuses rings beyond the configured caps, empty or repeated buckets,
// bucket keys no measurement maps to and samples that are not positive and
// finite; on error the predictor is unchanged.
func (e *ECM) SetState(st ECMState) error {
	if err := checkRing(st.Global, e.cfg.GlobalCap); err != nil {
		return fmt.Errorf("ECM: global ring: %w", err)
	}
	buckets := make(map[ecmKey]*orderedRing, len(st.Buckets))
	for _, b := range st.Buckets {
		k := ecmKey{RTT: b.RTT, Loss: b.Loss, ABW: b.ABW}
		if !k.reachable() {
			return fmt.Errorf("ECM: bucket %+v has a key no measurement maps to", k)
		}
		if buckets[k] != nil || len(b.Samples) == 0 {
			return fmt.Errorf("ECM: bucket %+v is empty or repeated", k)
		}
		if err := checkRing(b.Samples, e.cfg.BucketCap); err != nil {
			return fmt.Errorf("ECM: bucket %+v: %w", k, err)
		}
		r := newOrderedRing(e.cfg.BucketCap)
		r.fill(b.Samples)
		buckets[k] = &r
	}
	e.buckets = buckets
	e.global.fill(st.Global)
	return nil
}

// checkRing vets one restored ring: at most limit samples, each positive
// and finite.
func checkRing(xs []float64, limit int) error {
	if len(xs) > limit {
		return fmt.Errorf("%d samples exceed the cap of %d", len(xs), limit)
	}
	for _, v := range xs {
		if !isFinitePositive(v) {
			return fmt.Errorf("sample %v", v)
		}
	}
	return nil
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

// reachable reports whether bucketKey can produce k. It bounds how many
// buckets a restored state may hold to the 1 680 keys measurements map to.
func (k ecmKey) reachable() bool {
	in := func(v int8, lo, hi, none int) bool { return v == int8(none) || int(v) >= lo && int(v) <= hi }
	return in(k.RTT, rttBinMin, rttBinMax, rttUnknown) && in(k.Loss, lossBinMin, lossBinMax, lossNone) &&
		in(k.ABW, abwBinMin, abwBinMax, abwUnknown)
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
