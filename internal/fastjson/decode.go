package fastjson

import (
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Dec is a pull decoder over a complete JSON document held in memory. It
// replicates encoding/json's observable semantics for the fixed request
// shapes predsvc accepts: duplicate keys last-wins, unknown fields are
// skipped but still validated, null is accepted anywhere and leaves the
// target untouched, NaN/Infinity literals are syntax errors, and invalid
// UTF-8 inside string values decodes to U+FFFD exactly as
// json.Unmarshal's unquote does.
//
// Steady-state decoding never allocates: byte slices returned by Str are
// views into the input where the string needs no unescaping, and views
// into an internal scratch buffer otherwise — either way they are valid
// only until the next call that returns string data. Errors allocate,
// which is fine: an erroring request leaves the hot path anyway.
//
// A Dec is reusable via Reset and safe to keep in a sync.Pool.
type Dec struct {
	data    []byte
	pos     int
	depth   int // objects and arrays open around pos
	scratch []byte
}

// maxDepth is encoding/json's nesting limit: objects and arrays nested
// deeper are a syntax error there, and here, so a megabyte of '[' is
// refused rather than grow the goroutine stack by some 64 MB.
const maxDepth = 10000

// Reset points the decoder at a new document.
func (d *Dec) Reset(data []byte) {
	d.data = data
	d.pos = 0
	d.depth = 0
}

// open enters the object or array whose opening byte is at pos.
func (d *Dec) open() error {
	if d.depth++; d.depth > maxDepth {
		return d.syntaxErr("exceeded max depth")
	}
	d.pos++
	return nil
}

// Pos returns the current byte offset, for two-pass decoders that
// validate first and re-decode a recorded region on the second pass.
func (d *Dec) Pos() int { return d.pos }

// Seek moves the decoder to a byte offset previously obtained from Pos.
func (d *Dec) Seek(pos int) { d.pos = pos }

var errUnexpectedEOF = errors.New("fastjson: unexpected end of JSON input")

func (d *Dec) syntaxErr(what string) error {
	if d.pos >= len(d.data) {
		return errUnexpectedEOF
	}
	return fmt.Errorf("fastjson: %s at offset %d (%q)", what, d.pos, d.data[d.pos])
}

func (d *Dec) skipWS() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// Null consumes a null literal if one is next and reports whether it did.
// Callers use it for encoding/json's null semantics: the field keeps its
// previous value.
func (d *Dec) Null() bool {
	d.skipWS()
	if d.pos+4 <= len(d.data) && string(d.data[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// Object decodes a JSON object, invoking field for every key in document
// order. The callback must consume exactly one value (Str, Float64,
// Bool, Null, Skip, a nested Object/Array). The key slice is valid only
// until the callback's first decoding call. A top-level null is accepted
// as an empty object, mirroring json.Unmarshal's null-is-a-no-op into a
// struct.
func (d *Dec) Object(field func(key []byte) error) error {
	if d.Null() {
		return nil
	}
	d.skipWS()
	if d.pos >= len(d.data) {
		return errUnexpectedEOF
	}
	if d.data[d.pos] != '{' {
		return d.syntaxErr("expected object")
	}
	if err := d.open(); err != nil {
		return err
	}
	d.skipWS()
	if d.pos < len(d.data) && d.data[d.pos] == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		d.skipWS()
		key, err := d.Str()
		if err != nil {
			return err
		}
		d.skipWS()
		if d.pos >= len(d.data) || d.data[d.pos] != ':' {
			return d.syntaxErr("expected ':' after object key")
		}
		d.pos++
		if err := field(key); err != nil {
			return err
		}
		d.skipWS()
		if d.pos >= len(d.data) {
			return errUnexpectedEOF
		}
		switch d.data[d.pos] {
		case ',':
			d.pos++
		case '}':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntaxErr("expected ',' or '}' in object")
		}
	}
}

// KeyMatches reports whether a decoded object key selects the struct field
// whose JSON name is name, an ASCII string, the way encoding/json matches
// them: exactly, or else equal once case is folded. json folds an ASCII
// letter to upper case and any other rune r to
// unicode.ToUpper(unicode.ToLower(r)), so "PATH", "Path" and "paths" with
// a long s (U+017F) select "path" and "paths" too.
func KeyMatches(key []byte, name string) bool {
	if string(key) == name {
		return true
	}
	for _, c := range name {
		r, n := utf8.DecodeRune(key)
		if n == 0 || unicode.ToUpper(unicode.ToLower(r)) != unicode.ToUpper(c) {
			return false
		}
		key = key[n:]
	}
	return len(key) == 0
}

// Array decodes a JSON array, invoking elem once per element; elem must
// consume exactly one value. A null is accepted as an empty array,
// mirroring json.Unmarshal's null-into-slice no-op.
func (d *Dec) Array(elem func() error) error {
	if d.Null() {
		return nil
	}
	d.skipWS()
	if d.pos >= len(d.data) {
		return errUnexpectedEOF
	}
	if d.data[d.pos] != '[' {
		return d.syntaxErr("expected array")
	}
	if err := d.open(); err != nil {
		return err
	}
	d.skipWS()
	if d.pos < len(d.data) && d.data[d.pos] == ']' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.skipWS()
		if d.pos >= len(d.data) {
			return errUnexpectedEOF
		}
		switch d.data[d.pos] {
		case ',':
			d.pos++
		case ']':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntaxErr("expected ',' or ']' in array")
		}
	}
}

// Str decodes a JSON string. The returned slice is a view into the input
// (no escapes, valid UTF-8) or into the decoder's scratch buffer, and is
// valid only until the next call that returns string data.
func (d *Dec) Str() ([]byte, error) {
	d.skipWS()
	if d.pos >= len(d.data) {
		return nil, errUnexpectedEOF
	}
	if d.data[d.pos] != '"' {
		return nil, d.syntaxErr("expected string")
	}
	start := d.pos + 1
	i := start
	for i < len(d.data) {
		c := d.data[i]
		if c == '"' {
			d.pos = i + 1
			return d.data[start:i], nil
		}
		if c == '\\' || c < 0x20 {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(d.data[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	return d.strSlow(start, i)
}

// strSlow unescapes a string into the scratch buffer starting from the
// first byte the fast path could not take verbatim. from is the offset
// of the opening quote + 1; i is where the fast scan stopped.
func (d *Dec) strSlow(from, i int) ([]byte, error) {
	s := append(d.scratch[:0], d.data[from:i]...)
	data := d.data
	for {
		if i >= len(data) {
			d.pos = i
			d.scratch = s
			return nil, errUnexpectedEOF
		}
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			d.scratch = s
			return s, nil
		case c == '\\':
			i++
			if i >= len(data) {
				d.pos = i
				d.scratch = s
				return nil, errUnexpectedEOF
			}
			switch data[i] {
			case '"', '\\', '/':
				s = append(s, data[i])
				i++
			case 'b':
				s = append(s, '\b')
				i++
			case 'f':
				s = append(s, '\f')
				i++
			case 'n':
				s = append(s, '\n')
				i++
			case 'r':
				s = append(s, '\r')
				i++
			case 't':
				s = append(s, '\t')
				i++
			case 'u':
				rr, ok := getu4(data, i-1)
				if !ok {
					d.pos = i - 1
					d.scratch = s
					return nil, d.syntaxErr("invalid \\u escape in string")
				}
				i += 5
				if utf16.IsSurrogate(rr) {
					rr1, ok1 := getu4(data, i)
					if dec := utf16.DecodeRune(rr, rr1); ok1 && dec != utf8.RuneError {
						i += 6
						s = utf8.AppendRune(s, dec)
						break
					}
					// Invalid surrogate sequence: the lone half becomes
					// U+FFFD, exactly as json's unquote does.
					rr = utf8.RuneError
				}
				s = utf8.AppendRune(s, rr)
			default:
				d.pos = i
				d.scratch = s
				return nil, d.syntaxErr("invalid escape in string")
			}
		case c < 0x20:
			d.pos = i
			d.scratch = s
			return nil, d.syntaxErr("control character in string")
		case c < utf8.RuneSelf:
			s = append(s, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				s = utf8.AppendRune(s, utf8.RuneError)
				i++
			} else {
				s = append(s, data[i:i+size]...)
				i += size
			}
		}
	}
}

// getu4 parses \uXXXX at data[at:]; at must point at the backslash. ok is
// false when the escape is malformed or truncated.
func getu4(data []byte, at int) (rune, bool) {
	if at+6 > len(data) || data[at] != '\\' || data[at+1] != 'u' {
		return -1, false
	}
	var r rune
	for _, c := range data[at+2 : at+6] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c = c - 'a' + 10
		case c >= 'A' && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1, false
		}
		r = r*16 + rune(c)
	}
	return r, true
}

// Float64 decodes a JSON number. The grammar is validated first — so
// NaN, Infinity, hex, leading zeros and bare '.' are syntax errors just
// as in encoding/json — and the token is then parsed with
// strconv.ParseFloat, whose overflow error is reported the way
// json.Unmarshal reports it (as an error, not ±Inf).
func (d *Dec) Float64() (float64, error) {
	start, err := d.scanNumber()
	if err != nil {
		return 0, err
	}
	// The string conversion stays on the stack: ParseFloat's argument
	// only leaks into its error, which this function does not let escape.
	f, perr := strconv.ParseFloat(string(d.data[start:d.pos]), 64)
	if perr != nil {
		return 0, fmt.Errorf("fastjson: number %s out of float64 range", d.data[start:d.pos])
	}
	return f, nil
}

// scanNumber validates one JSON number token and advances past it,
// returning the token's start offset.
func (d *Dec) scanNumber() (int, error) {
	d.skipWS()
	start := d.pos
	data := d.data
	i := d.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && data[i] >= '1' && data[i] <= '9':
		i++
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	default:
		d.pos = i
		return start, d.syntaxErr("invalid number")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i >= len(data) || data[i] < '0' || data[i] > '9' {
			d.pos = i
			return start, d.syntaxErr("invalid number: expected digit after '.'")
		}
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || data[i] < '0' || data[i] > '9' {
			d.pos = i
			return start, d.syntaxErr("invalid number: expected digit in exponent")
		}
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	}
	d.pos = i
	return start, nil
}

// Bool decodes a JSON boolean.
func (d *Dec) Bool() (bool, error) {
	d.skipWS()
	if d.pos+4 <= len(d.data) && string(d.data[d.pos:d.pos+4]) == "true" {
		d.pos += 4
		return true, nil
	}
	if d.pos+5 <= len(d.data) && string(d.data[d.pos:d.pos+5]) == "false" {
		d.pos += 5
		return false, nil
	}
	return false, d.syntaxErr("expected boolean")
}

// Skip consumes one value of any kind, validating it the way
// encoding/json's scanner validates values it is not binding to a field
// (unknown fields are still required to be well-formed JSON).
func (d *Dec) Skip() error {
	d.skipWS()
	if d.pos >= len(d.data) {
		return errUnexpectedEOF
	}
	switch c := d.data[d.pos]; {
	case c == '{':
		return d.Object(func([]byte) error { return d.Skip() })
	case c == '[':
		return d.Array(func() error { return d.Skip() })
	case c == '"':
		return d.skipString()
	case c == 't' || c == 'f':
		_, err := d.Bool()
		return err
	case c == 'n':
		if d.Null() {
			return nil
		}
		return d.syntaxErr("invalid literal")
	case c == '-' || (c >= '0' && c <= '9'):
		_, err := d.scanNumber()
		return err
	default:
		return d.syntaxErr("unexpected character")
	}
}

// skipString validates a string without unescaping it. Unlike Str it
// does not need the scratch buffer: escape sequences are checked but the
// decoded bytes are discarded. Invalid UTF-8 passes — json's scanner
// never rejects it, only the unquote step replaces it.
func (d *Dec) skipString() error {
	i := d.pos + 1
	data := d.data
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return nil
		case c == '\\':
			if i+1 >= len(data) {
				d.pos = i
				return errUnexpectedEOF
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if _, ok := getu4(data, i); !ok {
					d.pos = i
					return d.syntaxErr("invalid \\u escape in string")
				}
				i += 6
			default:
				d.pos = i + 1
				return d.syntaxErr("invalid escape in string")
			}
		case c < 0x20:
			d.pos = i
			return d.syntaxErr("control character in string")
		default:
			i++
		}
	}
	d.pos = i
	return errUnexpectedEOF
}
