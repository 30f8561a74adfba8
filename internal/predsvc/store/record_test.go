package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// writeStream frames recs (path, data pairs) as a record stream.
func writeStream(t testing.TB, format string, recs ...[2]string) []byte {
	t.Helper()
	var b bytes.Buffer
	sw := NewStreamWriter(&b, format)
	for _, r := range recs {
		rec, err := NewRecord(r[0], []byte(r[1]))
		if err != nil {
			t.Fatal(err)
		}
		sw.Write(rec)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// readStream reads a whole stream, copying every record out.
func readStream(data []byte, format string) ([]Record, error) {
	sr, err := NewStreamReader(bytes.NewReader(data), format)
	if err != nil {
		return nil, err
	}
	var out []Record
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, append(Record(nil), rec...))
	}
}

func TestRecordStreamRoundTrip(t *testing.T) {
	in := [][2]string{{"a", `{"x":1}`}, {"", ""}, {"path/with spaces", string(bytes.Repeat([]byte{0xff}, 5000))}}
	data := writeStream(t, "toy/1", in...)
	recs, err := readStream(data, "toy/1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(in) {
		t.Fatalf("read %d records, wrote %d", len(recs), len(in))
	}
	for i, r := range recs {
		if r.Path() != in[i][0] || string(r.Data()) != in[i][1] {
			t.Fatalf("record %d = (%q, %d bytes), want (%q, %d bytes)", i, r.Path(), len(r.Data()), in[i][0], len(in[i][1]))
		}
	}
	// Another format is refused at the header, and so is no stream at all.
	for _, bad := range [][]byte{writeStream(t, "toy/2", in...), nil, []byte(`{"version":3,"paths":[]}`)} {
		if _, err := readStream(bad, "toy/1"); !errors.Is(err, ErrCorruptStream) {
			t.Errorf("reading %.20q as toy/1: err = %v, want ErrCorruptStream", bad, err)
		}
	}
	if _, err := NewRecord("p", make([]byte, MaxRecordBytes)); err == nil {
		t.Error("NewRecord framed a record past MaxRecordBytes")
	}
}

// endless yields zero bytes forever, counting them.
type endless struct{ n int64 }

func (e *endless) Read(p []byte) (int, error) {
	clear(p)
	e.n += int64(len(p))
	return len(p), nil
}

// TestRecordStreamRefusesOversizedRecord: a record header that declares
// 1 GiB is refused from the header alone — the reader neither reads nor
// allocates the body it announces.
func TestRecordStreamRefusesOversizedRecord(t *testing.T) {
	hdr := writeStream(t, "toy/1")
	hdr = hdr[:len(hdr)-recordHeaderLen-recordSumLen] // drop the trailer
	hdr = binary.BigEndian.AppendUint32(hdr, 4)
	hdr = binary.BigEndian.AppendUint32(hdr, 1<<30)
	body := &endless{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sr, err := NewStreamReader(io.MultiReader(bytes.NewReader(hdr), body), "toy/1")
	if err != nil {
		t.Fatal(err)
	}
	_, err = sr.Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptStream) {
		t.Fatalf("Next = %v, want ErrCorruptStream", err)
	}
	if body.n > 64<<10 {
		t.Errorf("reader consumed %d bytes of the declared body", body.n)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("reader allocated %d bytes for a refused record", grew)
	}
}

// FuzzRecordStream feeds arbitrary bytes to the record-stream reader, the
// one parser of spill records, snapshot files and handoff bodies. It must
// never panic, never hand out a record past MaxRecordBytes, and a stream
// it accepts must re-write byte-identically. Seeds are valid streams plus
// the committed corpus in testdata/fuzz.
//
// Run with: go test ./internal/predsvc/store -run '^$' -fuzz FuzzRecordStream -fuzztime 10s
func FuzzRecordStream(f *testing.F) {
	f.Add(writeStream(f, "toy/1"))
	f.Add(writeStream(f, "toy/1", [2]string{"a", "1"}))
	f.Add(writeStream(f, "toy/1", [2]string{"a", "1"}, [2]string{"b", `{"vals":[2,3]}`}, [2]string{"", ""}))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := readStream(data, "toy/1")
		for _, r := range recs {
			if len(r) > recordHeaderLen+MaxRecordBytes+recordSumLen {
				t.Fatalf("record of %d bytes handed out", len(r))
			}
		}
		if err != nil {
			return
		}
		var b bytes.Buffer
		sw := NewStreamWriter(&b, "toy/1")
		for _, r := range recs {
			sw.Write(r)
		}
		sw.Close()
		if !bytes.Equal(b.Bytes(), data) {
			t.Fatalf("accepted stream re-writes differently:\n%x\n%x", data, b.Bytes())
		}
	})
}
