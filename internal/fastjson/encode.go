package fastjson

import (
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// safeSet reports the ASCII bytes that can appear verbatim inside a JSON
// string encoded the way json.Marshal does by default: printable, not a
// quote or backslash, and not one of the HTML-unsafe <, >, & (which
// encoding/json escapes unless SetEscapeHTML(false)).
var safeSet = func() (s [utf8.RuneSelf]bool) {
	for i := 0x20; i < utf8.RuneSelf; i++ {
		s[i] = true
	}
	for _, c := range []byte{'"', '\\', '<', '>', '&'} {
		s[c] = false
	}
	return
}()

// AppendString appends s as a JSON string, byte-identical to
// json.Marshal(s).
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safeSet[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			dst = appendEscapedByte(dst, b)
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		// U+2028 and U+2029 are valid JSON but break JSONP consumers;
		// encoding/json escapes them unconditionally, so we do too.
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendStringBytes is AppendString over a byte slice, for decoded wire
// fields that were never materialized as strings.
func AppendStringBytes(dst, s []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safeSet[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			dst = appendEscapedByte(dst, b)
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRune(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

func appendEscapedByte(dst []byte, b byte) []byte {
	switch b {
	case '\\', '"':
		return append(dst, '\\', b)
	case '\b':
		return append(dst, '\\', 'b')
	case '\f':
		return append(dst, '\\', 'f')
	case '\n':
		return append(dst, '\\', 'n')
	case '\r':
		return append(dst, '\\', 'r')
	case '\t':
		return append(dst, '\\', 't')
	default:
		// Remaining control characters and the HTML-unsafe <, >, &.
		return append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
	}
}

// AppendUint64 appends u in base 10.
func AppendUint64(dst []byte, u uint64) []byte {
	return strconv.AppendUint(dst, u, 10)
}

// AppendInt64 appends i in base 10.
func AppendInt64(dst []byte, i int64) []byte {
	return strconv.AppendInt(dst, i, 10)
}

// AppendBool appends the JSON literal for v.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}
