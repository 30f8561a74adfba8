// Package fastjson is the hand-rolled JSON fastpath behind predsvc's hot
// wire shapes: append-based encoders that are byte-for-byte identical to
// encoding/json for the values the service emits, and an allocation-free
// pull decoder for the fixed request shapes it accepts.
//
// The package deliberately implements a subset of JSON — strings, IEEE
// floats, unsigned/signed integers, bools, objects, arrays, null — with
// encoding/json's exact observable behavior on that subset: the same
// escaping (HTML-unsafe characters, control characters, invalid UTF-8 →
// U+FFFD, U+2028/U+2029), the same float formatting ('f' vs 'e' with the
// exponent cleanup), the same decode semantics (duplicate keys last-wins,
// unknown fields skipped but validated, null is a no-op, NaN/Inf literals
// rejected). encoding/json remains the correctness oracle: the compat
// tests in this package hold the two byte-identical on generated
// payloads, and predsvc's digest gates hold them identical end to end.
//
// Ownership: the package keeps no buffers of its own. Encoders append to
// the caller's slice, and predsvc's wire handlers pool those slices per
// request (wirePool in wire.go). Dec never allocates in steady state —
// strings it returns are views into the input or into an internal scratch
// buffer, valid only until the next decoding call.
package fastjson
