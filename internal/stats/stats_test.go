package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRelativeErrorSymmetry(t *testing.T) {
	// Over/underestimation by the same factor w gives |E| = w-1 (Eq. 4).
	f := func(rRaw, wRaw uint16) bool {
		r := 1 + float64(rRaw)
		w := 1 + float64(wRaw%100)/10
		over := RelativeError(w*r, r)
		under := RelativeError(r/w, r)
		return math.Abs(over-(w-1)) < 1e-9 && math.Abs(under+(w-1)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// |E| is the symmetric relative difference LSO thresholds.
	if a, b := math.Abs(RelativeError(1, 1.3)), math.Abs(RelativeError(1.3, 1)); a != b || math.Abs(a-0.3) > 1e-12 {
		t.Errorf("|E(1, 1.3)| = %v, |E(1.3, 1)| = %v, want both 0.3", a, b)
	}
}

func TestRelativeErrorSigns(t *testing.T) {
	if RelativeError(2, 1) <= 0 {
		t.Error("overestimation must be positive")
	}
	if RelativeError(1, 2) >= 0 {
		t.Error("underestimation must be negative")
	}
	if RelativeError(5, 5) != 0 {
		t.Error("exact prediction must be zero")
	}
}

func TestRelativeErrorDegenerate(t *testing.T) {
	if RelativeError(0, 0) != 0 {
		t.Error("0/0 should be 0")
	}
	if !math.IsInf(RelativeError(1, 0), 1) {
		t.Error("pred>actual=0 should be +Inf")
	}
	if !math.IsInf(RelativeError(0, 1), -1) {
		t.Error("pred=0<actual should be -Inf")
	}
}

func TestRMSRE(t *testing.T) {
	// sqrt((1+4+9)/3) = sqrt(14/3)
	got := RMSRE([]float64{1, -2, 3})
	want := math.Sqrt(14.0 / 3)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("RMSRE = %v, want %v", got, want)
	}
	// No scored forecast at all (an empty or all-unready series) is a
	// zero, not a division by zero.
	for _, parts := range [][][]float64{nil, {nil}, {nil, {}}} {
		if got := RMSRE(parts...); got != 0 {
			t.Errorf("RMSRE of %d empty parts = %v, want 0", len(parts), got)
		}
	}
}

func TestRMSREClamp(t *testing.T) {
	if got := RMSRE([]float64{math.Inf(1)}); got != ErrClamp {
		t.Errorf("RMSRE(+Inf) = %v, want %v", got, ErrClamp)
	}
	// 3 and -4 stay; 100 counts as 10.
	if got, want := RMSRE([]float64{3, -4, 100}), math.Sqrt((9+16+100)/3.0); got != want {
		t.Errorf("RMSRE = %v, want %v", got, want)
	}
}

func TestClampError(t *testing.T) {
	for _, c := range []struct{ e, want float64 }{
		{math.Inf(-1), -ErrClamp},
		{-1e18, -ErrClamp},
		{-10.5, -ErrClamp},
		{-ErrClamp, -ErrClamp},
		{-1, -1},
		{math.Copysign(0, -1), math.Copysign(0, -1)},
		{0, 0},
		{1, 1},
		{ErrClamp, ErrClamp},
		{10.5, ErrClamp},
		{1e18, ErrClamp},
		{math.Inf(1), ErrClamp},
		{math.NaN(), ErrClamp},
	} {
		if got := ClampError(c.e); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("ClampError(%v) = %v, want %v", c.e, got, c.want)
		}
	}
}

// TestRMSREParts: splitting the errors into parts, as a ring passes its
// two segments, gives the same bits as one slice.
func TestRMSREParts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(8) {
			case 0:
				xs[i] = math.Inf(1 - 2*rng.Intn(2))
			case 1:
				xs[i] = math.NaN()
			default:
				xs[i] = rng.NormFloat64() * 3
			}
		}
		return xs
	}
	for trial := 0; trial < 200; trial++ {
		a, b := draw(rng.Intn(60)), draw(rng.Intn(60))
		whole := RMSRE(append(append([]float64(nil), a...), b...))
		if got := RMSRE(a, b); math.Float64bits(got) != math.Float64bits(whole) {
			t.Fatalf("trial %d: RMSRE(a, b) = %v, RMSRE(a ++ b) = %v", trial, got, whole)
		}
		k := len(b) / 2
		if got := RMSRE(a, b[:k], nil, b[k:]); math.Float64bits(got) != math.Float64bits(whole) {
			t.Fatalf("trial %d: RMSRE over four parts = %v, over one = %v", trial, got, whole)
		}
	}
}

// TestRMSREDegenerate: each degenerate (forecast, actual) pair adds
// exactly 0 or ErrClamp² to the sum of squares, so a zero-byte transfer
// or a garbage forecast costs a bounded, finite amount.
func TestRMSREDegenerate(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		pred, actual, contrib float64
	}{
		{0, 0, 0},
		{1e6, 0, ErrClamp * ErrClamp},
		{0, 1e6, ErrClamp * ErrClamp},
		{-1, 1e6, ErrClamp * ErrClamp},
		{nan, 1e6, ErrClamp * ErrClamp},
		{1e6, nan, ErrClamp * ErrClamp},
		{nan, nan, ErrClamp * ErrClamp},
		{inf, 1e6, ErrClamp * ErrClamp},
		{1e6, inf, ErrClamp * ErrClamp},
		{-inf, 1e6, ErrClamp * ErrClamp},
		{inf, inf, 0},
	} {
		e := RelativeError(c.pred, c.actual)
		// Alongside a regular error of 1: sqrt((1 + contrib) / 2).
		if got, want := RMSRE([]float64{1, e}), math.Sqrt((1+c.contrib)/2); got != want {
			t.Errorf("RelativeError(%v, %v) = %v: RMSRE with E=1 is %v, want %v", c.pred, c.actual, e, got, want)
		}
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("Mean = %v, want 5", Mean(xs))
	}
	if Variance(xs) != 4 {
		t.Errorf("Variance = %v, want 4", Variance(xs))
	}
	if StdDev(xs) != 2 {
		t.Errorf("StdDev = %v, want 2", StdDev(xs))
	}
}

func TestCoV(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := CoV(xs); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("CoV = %v, want 0.4", got)
	}
	if CoV([]float64{0, 0}) != 0 {
		t.Error("CoV of zero-mean series should be 0")
	}
	// A constant series has zero CoV.
	if CoV([]float64{3, 3, 3}) != 0 {
		t.Error("CoV of constant series should be 0")
	}
}

func TestSegmentedCoV(t *testing.T) {
	// Two perfectly constant levels: per-segment CoV is 0, even though the
	// pooled CoV is large — the paper's motivation for segmenting.
	series := []float64{1, 1, 1, 1, 10, 10, 10, 10}
	if got := SegmentedCoV(series, []int{4}); got != 0 {
		t.Errorf("segmented CoV = %v, want 0", got)
	}
	if CoV(series) < 0.5 {
		t.Error("pooled CoV should be large for the shifted series")
	}
	// No boundaries = plain CoV.
	if SegmentedCoV(series, nil) != CoV(series) {
		t.Error("SegmentedCoV without boundaries should equal CoV")
	}
}

func TestSegmentedCoVWeighting(t *testing.T) {
	// Segment 1 (noisy, length 2), segment 2 (constant, length 8):
	// weighted result = cov1·0.2.
	series := []float64{1, 3, 5, 5, 5, 5, 5, 5, 5, 5}
	cov1 := CoV([]float64{1, 3})
	want := cov1 * 2 / 10
	if got := SegmentedCoV(series, []int{2}); math.Abs(got-want) > 1e-12 {
		t.Errorf("weighted segmented CoV = %v, want %v", got, want)
	}
}

func TestMedianPercentile(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Median(xs) != 2 {
		t.Errorf("Median = %v, want 2", Median(xs))
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 3 {
		t.Error("extreme percentiles wrong")
	}
	if got := Percentile([]float64{1, 2, 3, 4}, 50); got != 2.5 {
		t.Errorf("even-length median = %v, want 2.5", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint8, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		return Percentile(xs, a) <= Percentile(xs, b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect correlation = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v, want -1", got)
	}
	if Pearson(xs, []float64{1, 1, 1, 1, 1}) != 0 {
		t.Error("correlation with constant should be 0")
	}
	if Pearson(xs, ys[:3]) != 0 {
		t.Error("mismatched lengths should yield 0")
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(a, b []int8) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n < 2 {
			return true
		}
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = float64(a[i])
			ys[i] = float64(b[i])
		}
		r := Pearson(xs, ys)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := map[float64]float64{0.5: 0, 1: 0.25, 2.5: 0.5, 4: 1, 10: 1}
	for x, want := range cases {
		if got := c.At(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("CDF.At(%v) = %v, want %v", x, got, want)
		}
	}
	if c.N() != 4 {
		t.Errorf("N = %d, want 4", c.N())
	}
	if got := c.Quantile(0.5); got != 2.5 {
		t.Errorf("Quantile(0.5) = %v, want 2.5", got)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
			t.Error("CDF points not monotone")
		}
	}
	if pts[len(pts)-1][1] != 1 {
		t.Errorf("last point y = %v, want 1", pts[len(pts)-1][1])
	}
}

func TestDownsample(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	got := Downsample(xs, 3, 0)
	want := []float64{0, 3, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("Downsample = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Downsample = %v, want %v", got, want)
		}
	}
	if got := Downsample(xs, 3, 1); got[0] != 1 || len(got) != 3 {
		t.Errorf("offset downsample = %v", got)
	}
	if got := Downsample(xs, 1, 0); len(got) != 10 {
		t.Errorf("k=1 should copy, got %d", len(got))
	}
}

func TestFractionAbove(t *testing.T) {
	xs := []float64{-5, -1, 0, 1, 5}
	if got := FractionAbove(xs, 1); got != 0.4 {
		t.Errorf("FractionAbove(1) = %v, want 0.4 (|−5| and |5|)", got)
	}
	if FractionAbove(nil, 1) != 0 {
		t.Error("empty FractionAbove should be 0")
	}
}
