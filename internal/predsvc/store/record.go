package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"slices"
)

// Record is one checksummed record, the unit the spill log, snapshot files
// and shard handoff all carry:
//
//	u32 pathLen | u32 dataLen | path | data | sha256(path‖data)
//
// (lengths big-endian). The package never looks inside data: the payload is
// whatever the caller's Codec produced.
type Record []byte

const (
	recordHeaderLen = 8
	recordSumLen    = sha256.Size

	// MaxRecordBytes bounds one record's path plus data. Every reader
	// rejects a larger declared length before it allocates, and every writer
	// refuses to produce one, so nothing written can be unreadable.
	MaxRecordBytes = 1 << 20

	// trailerMark in the pathLen position ends a stream: the next four bytes
	// are the record count and the 32 after them the chained checksum.
	trailerMark = math.MaxUint32

	// streamMagic is the header record's path; its data names the payload
	// format and version.
	streamMagic = "tcppred-records"
)

// ErrCorruptStream tags a record or stream that fails its framing: a bad
// checksum, a declared length past MaxRecordBytes, a missing or mismatched
// trailer, a foreign header, truncation or trailing bytes. Errors from the
// underlying reader are returned as they are.
var ErrCorruptStream = errors.New("store: corrupt record stream")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptStream, fmt.Sprintf(format, args...))
}

// NewRecord frames data under path.
func NewRecord(path string, data []byte) (Record, error) {
	rec := make([]byte, 0, recordHeaderLen+len(path)+len(data)+recordSumLen)
	return sealRecord(append(startRecord(rec, path), data...))
}

// startRecord appends a record's header and path to dst, which must be
// empty; the caller appends the payload and seals the record with
// sealRecord.
func startRecord(dst []byte, path string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(path)))
	dst = append(dst, 0, 0, 0, 0) // the payload length, set by sealRecord
	return append(dst, path...)
}

// sealRecord completes the record startRecord began: it sets the payload
// length and appends the checksum. It refuses a record past
// MaxRecordBytes.
func sealRecord(rec []byte) (Record, error) {
	pathLen := int(binary.BigEndian.Uint32(rec[0:4]))
	if n := len(rec) - recordHeaderLen; n > MaxRecordBytes {
		return nil, fmt.Errorf("store: record for %q: %d bytes exceed the %d-byte cap",
			string(rec[recordHeaderLen:recordHeaderLen+pathLen]), n, MaxRecordBytes)
	}
	binary.BigEndian.PutUint32(rec[4:8], uint32(len(rec)-recordHeaderLen-pathLen))
	sum := sha256.Sum256(rec[recordHeaderLen:])
	return append(rec, sum[:]...), nil
}

func (r Record) pathLen() int { return int(binary.BigEndian.Uint32(r[0:4])) }

// Path returns the path the record is stored under.
func (r Record) Path() string { return string(r.pathBytes()) }

func (r Record) pathBytes() []byte { return r[recordHeaderLen : recordHeaderLen+r.pathLen()] }

// Data returns the record's payload.
func (r Record) Data() []byte { return r[recordHeaderLen+r.pathLen() : len(r)-recordSumLen] }

func (r Record) sum() []byte { return r[len(r)-recordSumLen:] }

// bodyLen returns the path-plus-data length a record header declares,
// refusing one past MaxRecordBytes.
func bodyLen(hdr []byte) (int, error) {
	n := uint64(binary.BigEndian.Uint32(hdr[0:4])) + uint64(binary.BigEndian.Uint32(hdr[4:8]))
	if n > MaxRecordBytes {
		return 0, corrupt("record declares %d bytes, cap %d", n, MaxRecordBytes)
	}
	return int(n), nil
}

// checkRecord verifies that b (at least a header and a checksum long) is
// exactly one record with a matching checksum.
func checkRecord(b []byte) (Record, error) {
	n, err := bodyLen(b)
	if err != nil {
		return nil, err
	}
	if len(b) != recordHeaderLen+n+recordSumLen {
		return nil, corrupt("record declares %d bytes, frame holds %d", n, len(b)-recordHeaderLen-recordSumLen)
	}
	body := b[recordHeaderLen : recordHeaderLen+n]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], b[len(b)-recordSumLen:]) {
		return nil, corrupt("sha256 mismatch")
	}
	return Record(b), nil
}

// StreamWriter writes a record stream:
//
//	header record (path "tcppred-records", data = format)
//	records...
//	u32 0xFFFFFFFF | u32 record count | sha256 over the record checksums in order
//
// The trailer makes truncation, reordering and dropped records detectable.
// Errors are sticky: after the first failed write every call returns it.
type StreamWriter struct {
	w     io.Writer
	chain hash.Hash
	n     uint32
	err   error
}

// NewStreamWriter writes the stream header for format to w.
func NewStreamWriter(w io.Writer, format string) *StreamWriter {
	sw := &StreamWriter{w: w, chain: sha256.New()}
	var hdr Record
	if hdr, sw.err = NewRecord(streamMagic, []byte(format)); sw.err == nil {
		_, sw.err = w.Write(hdr)
	}
	return sw
}

// Write appends rec to the stream verbatim.
func (sw *StreamWriter) Write(rec Record) error {
	if sw.err != nil {
		return sw.err
	}
	sw.chain.Write(rec.sum())
	sw.n++
	_, sw.err = sw.w.Write(rec)
	return sw.err
}

// Close writes the trailer. It does not close the underlying writer.
func (sw *StreamWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	t := make([]byte, recordHeaderLen, recordHeaderLen+recordSumLen)
	binary.BigEndian.PutUint32(t[0:4], trailerMark)
	binary.BigEndian.PutUint32(t[4:8], sw.n)
	_, sw.err = sw.w.Write(sw.chain.Sum(t))
	return sw.err
}

// StreamReader reads a record stream written by StreamWriter, one bounded
// record at a time.
type StreamReader struct {
	r     *bufio.Reader
	chain hash.Hash
	n     uint32
	buf   []byte
}

// NewStreamReader reads and checks the stream header: a stream of any
// other format (or none) is ErrCorruptStream.
func NewStreamReader(r io.Reader, format string) (*StreamReader, error) {
	sr := &StreamReader{r: bufio.NewReader(r), chain: sha256.New()}
	hdr, err := sr.next()
	switch {
	case err != nil:
		return nil, fmt.Errorf("stream header: %w", err)
	case hdr == nil || hdr.Path() != streamMagic:
		return nil, corrupt("not a record stream")
	case string(hdr.Data()) != format:
		return nil, corrupt("stream format %q, want %q", hdr.Data(), format)
	}
	return sr, nil
}

// Next returns the next record, valid until the following call. After the
// last record it verifies the trailer and that the input ends there, then
// returns io.EOF; any framing fault is ErrCorruptStream.
func (sr *StreamReader) Next() (Record, error) {
	rec, err := sr.next()
	if err != nil {
		return nil, fmt.Errorf("record %d: %w", sr.n, err)
	}
	if rec == nil {
		return nil, sr.trailer()
	}
	sr.chain.Write(rec.sum())
	sr.n++
	return rec, nil
}

// next reads one record into sr.buf, or returns nil at the trailer mark
// with the trailer's count left in sr.buf[4:8].
func (sr *StreamReader) next() (Record, error) {
	sr.buf = slices.Grow(sr.buf[:0], recordHeaderLen)[:recordHeaderLen]
	if err := sr.read(sr.buf); err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint32(sr.buf[0:4]) == trailerMark {
		return nil, nil
	}
	n, err := bodyLen(sr.buf)
	if err != nil {
		return nil, err
	}
	size := recordHeaderLen + n + recordSumLen
	sr.buf = slices.Grow(sr.buf, size-recordHeaderLen)[:size]
	if err := sr.read(sr.buf[recordHeaderLen:]); err != nil {
		return nil, err
	}
	return checkRecord(sr.buf)
}

func (sr *StreamReader) trailer() error {
	count := binary.BigEndian.Uint32(sr.buf[4:8])
	var want [recordSumLen]byte
	if err := sr.read(want[:]); err != nil {
		return fmt.Errorf("trailer: %w", err)
	}
	if count != sr.n {
		return corrupt("trailer counts %d records, stream carried %d", count, sr.n)
	}
	if !bytes.Equal(sr.chain.Sum(nil), want[:]) {
		return corrupt("trailer checksum mismatch")
	}
	if _, err := sr.r.ReadByte(); err != io.EOF {
		if err != nil {
			return err
		}
		return corrupt("bytes after the trailer")
	}
	return io.EOF
}

// read fills b, reporting a stream that ends first as truncated.
func (sr *StreamReader) read(b []byte) error {
	_, err := io.ReadFull(sr.r, b)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return corrupt("truncated (no trailer)")
	}
	return err
}
