package predict

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// finite reports whether every value is neither infinite nor NaN.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return false
		}
	}
	return true
}

// The binary form of an EnsembleState, the payload the prediction service
// persists per path. Counts, lengths and integers are uvarints (an int as
// its two's complement, so a negative one round-trips for SetState to
// refuse), floats are float64 little-endian and bools one byte each:
//
//	state  = observations hasFB [rtt loss availBw] fbAge covIn covTotal window shifts n floats*n
//	floats = n float64*n
//
// The n float lists after the shift count are the families' error windows
// in zoo order; the HB trio's predictors are not stored, since SetState
// rebuilds them from the window.

// AppendBinary appends st's binary form to b. Like json.Marshal it refuses
// NaN and ±Inf, so a non-finite state fails when it is written rather than
// when it is read back.
func (st *EnsembleState) AppendBinary(b []byte) ([]byte, error) {
	w := stateWriter{b: b}
	w.uvarint(st.Observations)
	w.flag(st.FB != nil)
	if in := st.FB; in != nil {
		w.float(in.RTT)
		w.float(in.LossRate)
		w.float(in.AvailBw)
	}
	w.uvarint(st.FBAge)
	w.uvarint(st.CovIn)
	w.uvarint(st.CovTotal)
	w.floats(st.LSO.Window)
	w.uvarint(uint64(st.LSO.Shifts))
	w.uvarint(uint64(len(st.Errors)))
	for _, errs := range st.Errors {
		w.floats(errs)
	}
	if w.err != nil {
		return b, w.err
	}
	return w.b, nil
}

// UnmarshalBinary decodes an AppendBinary form into st, reusing st's
// storage; every field the form does not set is reset. The bytes are
// untrusted: every declared length is checked against the bytes that remain
// before anything is allocated for it, and a truncation, a bool byte other
// than 0 or 1 or a trailing byte is an error. It checks structure only;
// SetState checks the values. The decoded slices do not alias data. On
// error st is partly overwritten.
func (st *EnsembleState) UnmarshalBinary(data []byte) error {
	// Every float takes 8 bytes of data, so a backing array of len/8
	// holds all of them.
	st.reuse(len(data) / 8)
	r := stateReader{data: data, st: st}
	st.Observations = r.uvarint()
	if r.flag() {
		st.fb, st.FB = FBInputs{RTT: r.float(), LossRate: r.float(), AvailBw: r.float()}, &st.fb
	}
	st.FBAge, st.CovIn, st.CovTotal = r.uvarint(), r.uvarint(), r.uvarint()
	st.LSO = LSOState{Window: r.floatSlice(), Shifts: int(r.uvarint())}
	// An error window is at least its length.
	n := r.count(1)
	st.Errors = slices.Grow(st.Errors, n)[:n]
	for i := range st.Errors {
		st.Errors[i] = r.floatSlice()
	}
	if r.err == nil && len(r.data) > 0 {
		r.fail("%d trailing bytes", len(r.data))
	}
	return r.err
}

// stateWriter appends the binary form, keeping the first error.
type stateWriter struct {
	b   []byte
	err error
}

func (w *stateWriter) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("predict: encode state: "+format, args...)
	}
}

func (w *stateWriter) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

func (w *stateWriter) flag(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

func (w *stateWriter) float(x float64) {
	if !finite(x) {
		w.fail("non-finite value %v", x)
	}
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(x))
}

func (w *stateWriter) floats(xs []float64) {
	w.uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.float(x)
	}
}

// stateReader consumes the binary form. The first error sticks: every
// later read returns a zero value, so decoding runs to the end without
// checks at each step and reports that error.
type stateReader struct {
	data []byte
	st   *EnsembleState // whose backing array holds every decoded float slice
	err  error
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("predict: decode state: "+format, args...)
	}
}

// take returns the next n bytes, or nil once the data runs short.
func (r *stateReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.data) {
		r.fail("truncated")
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *stateReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *stateReader) flag() bool {
	b := r.u8()
	if b > 1 {
		r.fail("bool byte %d", b)
	}
	return b == 1
}

func (r *stateReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *stateReader) float() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// count reads a length and checks that that many items of at least size
// bytes each fit in the bytes that remain, so the caller may allocate.
func (r *stateReader) count(size int) int {
	n := r.uvarint()
	if n > uint64(len(r.data)/size) {
		r.fail("%d items of %d bytes declared, %d bytes left", n, size, len(r.data))
		return 0
	}
	return int(n)
}

// floatSlice reads a float list into the state's backing array. An empty
// list is nil.
func (r *stateReader) floatSlice() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	start, b := len(r.st.floats), r.take(8*n)
	for ; len(b) >= 8; b = b[8:] {
		r.st.floats = append(r.st.floats, math.Float64frombits(binary.LittleEndian.Uint64(b)))
	}
	return r.st.since(start)
}
