package fastjson

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// strconvFloat64 is the reference encoder: json.Marshal's own float
// formatting (encoding/json's floatEncoder), strconv's shortest rendering
// with the 'f'/'e' switch and the e-0X cleanup.
func strconvFloat64(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// TestAppendFloat64Schubfach holds AppendFloat64 byte-identical to
// json.Marshal where shortest-float conversion is hardest: every power of
// two and of ten with its ±1-ulp neighbours (the first double of each
// binade has the uneven rounding interval, and 2^50 + 1 ulp starts the
// binade where the nearest shortest decimal can be a tie), the 1e-6 and
// 1e21 format switches, and a fixed-seed draw of random bit patterns over
// the whole double range, NaN and ±Inf included. Each value goes into a
// sized buffer with no allocation.
func TestAppendFloat64Schubfach(t *testing.T) {
	buf := make([]byte, 0, 32)
	check := func(f float64) {
		t.Helper()
		got, ok := AppendFloat64(buf[:0], f)
		want, err := json.Marshal(f)
		if err != nil {
			if ok {
				t.Fatalf("AppendFloat64(%v) = %s, ok; json.Marshal fails: %v", f, got, err)
			}
			return
		}
		if !ok || string(got) != string(want) {
			t.Fatalf("AppendFloat64(%v) (bits %#016x) = %q, %v; want %s", f, math.Float64bits(f), got, ok, want)
		}
	}
	around := func(f float64) {
		t.Helper()
		for _, g := range []float64{f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1))} {
			check(g)
			check(-g)
		}
	}
	for e := -1074; e <= 1023; e++ {
		around(math.Ldexp(1, e))
	}
	for p := -323; p <= 308; p++ {
		around(math.Pow10(p))
	}
	for _, f := range []float64{1e-6, 1e21} {
		for g, i := f, 0; i < 16; i++ {
			g = math.Nextafter(g, 0)
			around(g)
		}
		for g, i := f, 0; i < 16; i++ {
			g = math.Nextafter(g, math.Inf(1))
			around(g)
		}
	}
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(60))
	for i := 0; i < n; i++ {
		check(math.Float64frombits(rng.Uint64()))
	}

	// A random draw lands mostly outside [1e-6, 1e21); the served range,
	// where every forecast falls, gets a draw of its own.
	for i := 0; i < n/10; i++ {
		check(rng.Float64() * math.Pow10(rng.Intn(19)-6))
	}

	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range []float64{0.1, -2.5e-7, 123456.789, 1e300, 5e-324, math.Copysign(0, -1)} {
			buf, _ = AppendFloat64(buf[:0], f)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendFloat64 into a sized buffer allocates %.1f times per run, want 0", allocs)
	}
}

// TestFloorLogs holds the fixed-point logarithms to their exact values
// over every exponent the conversion can pass them.
func TestFloorLogs(t *testing.T) {
	// ratio returns num/den·b^e as a fraction of integers.
	pow := func(b int64, e int) *big.Int {
		return new(big.Int).Exp(big.NewInt(b), big.NewInt(int64(max(e, -e))), nil)
	}
	ratio := func(num, den int64, b int64, e int) (*big.Int, *big.Int) {
		n, d := big.NewInt(num), big.NewInt(den)
		if e >= 0 {
			return n.Mul(n, pow(b, e)), d
		}
		return n, d.Mul(d, pow(b, e))
	}
	// floorLog returns ⌊log_base(num/den)⌋, from a float estimate settled
	// by exact integer comparisons.
	floorLog := func(num, den *big.Int, base int64, estimate float64) int {
		atMost := func(k int) bool { // base^k ≤ num/den
			p := pow(base, k)
			if k >= 0 {
				return p.Mul(p, den).Cmp(num) <= 0
			}
			return den.Cmp(p.Mul(p, num)) <= 0
		}
		k := int(math.Floor(estimate))
		for !atMost(k) {
			k--
		}
		for atMost(k + 1) {
			k++
		}
		return k
	}
	for q := -1074; q <= 971; q++ {
		num, den := ratio(1, 1, 2, q)
		if got, want := flog10pow2(q), floorLog(num, den, 10, float64(q)*math.Log10(2)); got != want {
			t.Fatalf("flog10pow2(%d) = %d, want %d", q, got, want)
		}
		num, den = ratio(3, 4, 2, q)
		if got, want := flog10threeQuartersPow2(q), floorLog(num, den, 10, float64(q)*math.Log10(2)+math.Log10(0.75)); got != want {
			t.Fatalf("flog10threeQuartersPow2(%d) = %d, want %d", q, got, want)
		}
	}
	for e := -292; e <= 324; e++ {
		num, den := ratio(1, 1, 10, e)
		if got, want := flog2pow10(e), floorLog(num, den, 2, float64(e)*math.Log2(10)); got != want {
			t.Fatalf("flog2pow10(%d) = %d, want %d", e, got, want)
		}
	}
}

// FuzzAppendFloat64 holds AppendFloat64 to the strconv reference on any
// bit pattern: the same bytes for every finite double, not-ok for NaN and
// ±Inf.
func FuzzAppendFloat64(f *testing.F) {
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		got, ok := AppendFloat64(nil, x)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			if ok {
				t.Fatalf("AppendFloat64(%v) = %q, ok", x, got)
			}
			return
		}
		if want := strconvFloat64(nil, x); !ok || string(got) != string(want) {
			t.Fatalf("AppendFloat64(%v) (bits %#016x) = %q, %v; want %q", x, bits, got, ok, want)
		}
	})
}
