package predict

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stats"
)

// insertionSort and oracleQuantiles are the sort-per-query path the
// ordered ring replaced, kept as the oracle its mirror is checked against.
func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// oracleQuantiles derives throughput quantiles for a forecast from errs, in
// any order, by sorting a copy of them.
func oracleQuantiles(forecast float64, errs []float64) (Quantiles, bool) {
	if len(errs) < residualMinSamples || !isFinitePositive(forecast) {
		return Quantiles{}, false
	}
	s := append([]float64(nil), errs...)
	insertionSort(s)
	return Quantiles{
		P10: invertRelErr(forecast, percentileSorted(s, 0.90)),
		P50: invertRelErr(forecast, percentileSorted(s, 0.50)),
		P90: invertRelErr(forecast, percentileSorted(s, 0.10)),
	}, true
}

// oracleMeanAbs is the mean |E| of errs, summed in order.
func oracleMeanAbs(errs []float64) float64 {
	if len(errs) == 0 {
		return 0
	}
	var abs float64
	for _, e := range errs {
		abs += math.Abs(e)
	}
	return abs / float64(len(errs))
}

// checkMirror fails unless r's mirror is its chronological contents sorted.
func checkMirror(t *testing.T, r *orderedRing, step int) {
	t.Helper()
	want := r.chronological(nil)
	slices.Sort(want)
	if !slices.Equal(r.sorted, want) {
		t.Fatalf("step %d: mirror %v, want %v", step, r.sorted, want)
	}
}

func sameBits(a, b Quantiles) bool {
	return math.Float64bits(a.P10) == math.Float64bits(b.P10) &&
		math.Float64bits(a.P50) == math.Float64bits(b.P50) &&
		math.Float64bits(a.P90) == math.Float64bits(b.P90)
}

// residualDraw returns a raw error for a window clamped at ±10: mostly a
// value from a small grid (so duplicates are common), sometimes ±0, a
// saturating ±1e18 or ±25, or NaN.
func residualDraw(rng *rand.Rand) float64 {
	switch r := rng.Intn(20); {
	case r == 0:
		return math.Copysign(0, -1)
	case r == 1:
		return 0
	case r == 2:
		return 1e18
	case r == 3:
		return -25
	case r == 4:
		return math.NaN()
	case r < 12:
		return float64(rng.Intn(9)-4) / 4
	default:
		return rng.NormFloat64()
	}
}

// TestOrderedRingMatchesOracle pushes random error streams through
// residual windows of several capacities, with the occasional Reset and a
// SetErrors of up to twice the capacity. After every step the mirror must
// be the sorted chronological contents, the quantiles of several forecasts
// must be bit-equal to sorting those contents per query, and the cached
// summary must be bit-equal to summing them afresh.
func TestOrderedRingMatchesOracle(t *testing.T) {
	forecasts := []float64{1, 3.7e6, 1e9, 0, -1, math.Inf(1)}
	for _, n := range []int{1, 2, 3, 50, 64, 128} {
		rng := rand.New(rand.NewSource(int64(n)))
		w := NewResidualWindow(n)
		for step := 0; step < 20*n+200; step++ {
			switch r := rng.Intn(100); {
			case r == 0:
				w.Reset()
			case r == 1:
				errs := make([]float64, rng.Intn(2*n+1))
				for i := range errs {
					errs[i] = residualDraw(rng)
				}
				w.SetErrors(errs)
			default:
				w.Push(residualDraw(rng))
			}
			checkMirror(t, &w.ring, step)
			if len(w.ring.buf) > n {
				t.Fatalf("cap %d, step %d: %d errors retained", n, step, len(w.ring.buf))
			}
			errs := w.Errors(nil)
			rmsre, meanAbs := w.summary()
			if wr, wm := stats.RMSRE(errs), oracleMeanAbs(errs); math.Float64bits(rmsre) != math.Float64bits(wr) || math.Float64bits(meanAbs) != math.Float64bits(wm) {
				t.Fatalf("cap %d, step %d: summary %v,%v, oracle %v,%v", n, step, rmsre, meanAbs, wr, wm)
			}
			for _, f := range forecasts {
				got, gok := w.QuantilesFor(f)
				want, wok := oracleQuantiles(f, errs)
				if gok != wok || !sameBits(got, want) {
					t.Fatalf("cap %d, step %d, forecast %v: quantiles %+v,%v, oracle %+v,%v", n, step, f, got, gok, want, wok)
				}
			}
		}
	}
}

// TestECMRingsMatchOracle drives ECM over a few conditioning buckets with
// small caps, resetting it and restoring it through SetState now and then.
// After every step each ring's mirror must be its sorted contents, and the
// median forecast and quantiles must be bit-equal to sorting the selected
// distribution per query.
func TestECMRingsMatchOracle(t *testing.T) {
	conds := []FBInputs{
		{RTT: 0.01, LossRate: 1e-3, AvailBw: 8e6},
		{RTT: 0.1, LossRate: 0.02, AvailBw: 50e6},
		{RTT: 0.4},
	}
	for _, cfg := range []ECMConfig{{BucketCap: 1, GlobalCap: 2}, {BucketCap: 3, GlobalCap: 50, MinBucket: 2}, {}} {
		rng := rand.New(rand.NewSource(int64(cfg.GlobalCap)))
		e := NewECM(cfg)
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(100); {
			case r == 0:
				e.Reset()
			case r < 3:
				fresh := NewECM(e.cfg)
				if err := fresh.SetState(e.State()); err != nil {
					t.Fatal(err)
				}
				fresh.cond, fresh.hasCond = e.cond, e.hasCond
				e = fresh
			case r < 10:
				e.SetConditions(conds[rng.Intn(len(conds))])
			case r < 12:
				e.ClearConditions()
			default:
				e.Observe(float64(1+rng.Intn(12)) * 1e6)
			}
			checkMirror(t, &e.global, step)
			for _, b := range e.buckets {
				checkMirror(t, b, step)
			}
			s := e.ring().chronological(nil)
			insertionSort(s)
			got, ok := e.Predict()
			if ok != (len(s) > 0) || ok && math.Float64bits(got) != math.Float64bits(percentileSorted(s, 0.5)) {
				t.Fatalf("%+v, step %d: median %v,%v over sorted %v", cfg, step, got, ok, s)
			}
			q, ok := e.PredictQuantiles()
			if ok != (len(s) >= residualMinSamples) {
				t.Fatalf("%+v, step %d: quantiles ok=%v over %d samples", cfg, step, ok, len(s))
			}
			if !ok {
				continue
			}
			if want := (Quantiles{percentileSorted(s, 0.1), percentileSorted(s, 0.5), percentileSorted(s, 0.9)}); !sameBits(q, want) {
				t.Fatalf("%+v, step %d: quantiles %+v, oracle %+v", cfg, step, q, want)
			}
		}
	}
}
