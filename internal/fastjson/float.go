package fastjson

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// AppendFloat64 appends f formatted exactly as json.Marshal formats a
// float64: shortest 'f' form, switching to 'e' outside [1e-6, 1e21) with
// the two-digit exponent shortened (1e-09 → 1e-9). ok is false — and dst
// is returned unchanged — for NaN and ±Inf, which JSON cannot represent
// (json.Marshal fails the whole document with an UnsupportedValueError;
// callers mirror that by falling back to the oracle path).
func AppendFloat64(dst []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	// Integral fast path: below 2^53 every float has a unit ulp or finer,
	// so the exact integer digits are the shortest decimal that parses
	// back — the same string the 'f'-format shortest rendering produces —
	// and AppendInt is cheaper still than the search below. -0 must fall
	// through (json renders it "-0").
	if i := int64(f); float64(i) == f && f >= -(1<<53) && f <= 1<<53 &&
		!(f == 0 && math.Signbit(f)) {
		return strconv.AppendInt(dst, i, 10), true
	}
	u := math.Float64bits(f)
	be := int(u>>52) & 0x7ff
	if be == 0 {
		// -0, or a subnormal: Schubfach keeps at least two digits in the
		// last binade (5e-324 would come out 4.9e-324), so strconv renders
		// these; no served value is one. A subnormal's exponent has three
		// digits, so there is no e-0X to shorten.
		if f == 0 {
			return append(dst, "-0"...), true
		}
		return strconv.AppendFloat(dst, f, 'e', -1, 64), true
	}
	if u>>63 != 0 {
		dst = append(dst, '-')
	}
	m, k := shortest(1<<52|u&(1<<52-1), be-1075)

	// The 16 or 17 digits of m (10^15 ≤ m < 10^17 for a normal double),
	// as a leading digit and two 8-digit halves. dp is the position of the
	// decimal point counted from the first digit, so the value is
	// 0.d₁d₂…·10^dp; trailing zeros do not move it.
	var buf [17]byte
	hi := m / 1e8
	put8((*[8]byte)(buf[9:]), uint32(m-hi*1e8))
	put8((*[8]byte)(buf[1:]), uint32(hi%1e8))
	buf[0] = byte('0' + hi/1e8)
	digits := buf[:]
	if buf[0] == '0' {
		digits = buf[1:]
	}
	dp := len(digits) + k
	n := len(digits)
	for digits[n-1] == '0' {
		n--
	}
	digits = digits[:n]

	if abs := math.Abs(f); abs >= 1e-6 && abs < 1e21 {
		switch {
		case dp <= 0:
			dst = append(dst, '0', '.')
			for ; dp < 0; dp++ {
				dst = append(dst, '0')
			}
			return append(dst, digits...), true
		case dp < n:
			dst = append(dst, digits[:dp]...)
			dst = append(dst, '.')
			return append(dst, digits[dp:]...), true
		}
		dst = append(dst, digits...)
		for ; n < dp; n++ {
			dst = append(dst, '0')
		}
		return dst, true
	}
	dst = append(dst, digits[0])
	if n > 1 {
		dst = append(dst, '.')
		dst = append(dst, digits[1:]...)
	}
	exp := dp - 1
	if exp < 0 {
		// json.Marshal's cleanup: a negative exponent drops strconv's
		// leading zero, so 1e-09 is 1e-9.
		dst = append(dst, 'e', '-')
		exp = -exp
		if exp < 10 {
			return append(dst, byte('0'+exp)), true
		}
	} else {
		dst = append(dst, 'e', '+')
	}
	if exp >= 100 {
		dst = append(dst, byte('0'+exp/100))
		exp %= 100
	}
	return append(dst, digitPairs[exp][:]...), true
}

// put8 writes the eight decimal digits of x < 10^8, zero-padded, to b.
func put8(b *[8]byte, x uint32) {
	hi, lo := x/10000, x%10000
	*(*[2]byte)(b[0:]) = digitPairs[hi/100%100]
	*(*[2]byte)(b[2:]) = digitPairs[hi%100]
	*(*[2]byte)(b[4:]) = digitPairs[lo/100%100]
	*(*[2]byte)(b[6:]) = digitPairs[lo%100]
}

// digitPairs[i] is the two decimal digits of i.
var digitPairs = func() (t [100][2]byte) {
	for i := range t {
		t[i] = [2]byte{byte('0' + i/10), byte('0' + i%10)}
	}
	return t
}()

// shortest returns the decimal m·10^k that strconv's shortest rendering
// of the positive normal double c·2^q gives (2^52 ≤ c < 2^53): the
// shortest decimal that parses back to the double, and of those the
// nearest, ties to even. m may carry trailing zeros.
//
// This is Schubfach (R. Giulietti, "The Schubfach way to render doubles",
// 2020; Java's Double.toString since JDK 19). With k = ⌊log10 of the
// rounding interval's width⌋, the interval holds at most one multiple of
// 10^(k+1) and at least one of 10^k. The scaled value and both interval
// ends, times 4, come from one 126-bit approximation of 10^-k each (rop).
// If exactly one multiple of 10^(k+1) lies in the interval it is the
// answer; otherwise the answer is whichever of s·10^k and (s+1)·10^k,
// the two around the value, lies in it, or the nearer if both do.
func shortest(c uint64, q int) (m uint64, k int) {
	out := c & 1 // an interval end parses back iff c is even
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	if c != 1<<52 || q == -1074 {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// The first double of a binade: the gap below is half the gap above.
		cbl = cb - 1
		k = flog10threeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &pow10g[k-pow10gMinK]
	vb := rop(g[0], g[1], cb<<h)
	vbl := rop(g[0], g[1], cbl<<h)
	vbr := rop(g[0], g[1], cbr<<h)

	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop returns ⌊g·cp/2^127⌋ with its low bit set when the product had a
// fractional part (round to odd), where g = g1·2^63 + g0.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	const mask63 = 1<<63 - 1
	sticky := (z&mask63 + mask63) >> 63
	return (y1 + z>>63) | sticky
}

// flog10pow2 is ⌊log10(2^e)⌋, flog10threeQuartersPow2 is ⌊log10(¾·2^e)⌋
// and flog2pow10 is ⌊log2(10^e)⌋, in the Schubfach paper's fixed point;
// TestFloorLogs checks them exactly over every exponent a double needs.
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

func flog10threeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// pow10g holds, for k in [-324, 292] (⌊log10⌋ of every normal double's
// rounding interval), g = ⌊10^-k·2^-r⌋ + 1 with r = ⌊log2(10^-k)⌋ − 125,
// so 2^125 ≤ g < 2^126, split as g = g1·2^63 + g0 into {g1, g0}. It is
// computed exactly with math/big when the package loads (about half a
// millisecond) rather than kept as a 617-line literal.
const pow10gMinK = -324

var pow10g = func() (t [292 - pow10gMinK + 1][2]uint64) {
	var g, p big.Int
	one := big.NewInt(1)
	for i := range t {
		e := -(pow10gMinK + i) // g approximates 10^e
		r := flog2pow10(e) - 125
		p.Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		switch {
		case e < 0: // 2^-r / 10^-e, with r < 0
			g.Quo(g.Lsh(one, uint(-r)), &p)
		case r < 0:
			g.Lsh(&p, uint(-r))
		default:
			g.Rsh(&p, uint(r))
		}
		g.Add(&g, one)
		t[i][1] = g.Uint64() & (1<<63 - 1)
		t[i][0] = g.Rsh(&g, 63).Uint64()
	}
	return t
}()
