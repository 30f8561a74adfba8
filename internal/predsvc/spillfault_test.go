package predsvc

import (
	"encoding/json"
	"testing"

	"repro/internal/predict"
)

// TestSpillFaultMidstreamByteIdentity guards the two-tier store's core
// invariant at the session level: spilling a session through the codec
// and faulting it back in (exactly what the spill store does) must leave
// every subsequent predict response byte-identical to the uninterrupted
// session's, at any history length. The 600-epoch series is cut at epochs
// 60, 200 and 500 — long after every ring has wrapped and EWMA and
// Holt-Winters have absorbed far more observations than any window holds —
// and each faulted copy is compared with the live session every epoch to
// the end. Measurements are withheld in 70-epoch stretches, so FB goes
// stale and recovers on both sides of each cut.
func TestSpillFaultMidstreamByteIdentity(t *testing.T) {
	const epochs = 600
	series := SyntheticSeries(1, epochs, 7)[0]
	codec := sessionCodec()
	step := func(s *Session, k int) {
		if (k/70)%3 != 2 {
			s.SetMeasurement(series.Inputs[k])
		}
		s.Observe(series.Throughputs[k])
	}
	body := func(s *Session) string {
		b, err := json.Marshal(s.Predict())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	live := newSession(series.Path)
	var faulted []*Session
	cuts := map[int]bool{60: true, 200: true, 500: true}
	for k := 0; k < epochs; k++ {
		if cuts[k] {
			data, err := codec.Encode(live)
			if err != nil {
				t.Fatal(err)
			}
			e, err := codec.Decode(series.Path, data)
			if err != nil {
				t.Fatalf("cut %d: %v", k, err)
			}
			faulted = append(faulted, e.(*Session))
		}
		want := body(live)
		for i, f := range faulted {
			if got := body(f); got != want {
				t.Fatalf("copy %d diverged at epoch %d:\nlive    %s\nfaulted %s", i, k, want, got)
			}
			step(f, k)
		}
		step(live, k)
	}
	if len(faulted) != len(cuts) {
		t.Fatalf("%d faulted copies, want %d", len(faulted), len(cuts))
	}
}

// TestSessionRecordCompact pins what a fault-in costs without timing it: a
// session at svc-spill's warm depth (112 observations, measured every
// epoch) encodes to at most 1 660 bytes, and decoding the record's state
// allocates at most 3 objects: the float backing array, the measurement
// and the list of error windows. Version 4's JSON record was ≈ 15 KB, and
// json.Unmarshal of it allocated ≈ 163; version 6's seven families took
// 5.35 KB and 19; version 7's family names and predictor states 1 768
// bytes and 10.
func TestSessionRecordCompact(t *testing.T) {
	series := SyntheticSeries(1, 112, 5)[0]
	s := newSession(series.Path)
	for k, x := range series.Throughputs {
		s.SetMeasurement(series.Inputs[k])
		s.Observe(x)
	}
	data, err := sessionCodec().Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 1660 {
		t.Errorf("record of %d bytes, want ≤ 1 660", len(data))
	}
	var st predict.EnsembleState
	allocs := testing.AllocsPerRun(20, func() {
		if err := st.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("decoding a record allocates %.0f objects, want ≤ 3", allocs)
	}
}

// TestFaultInAllocs pins what a cold request costs the allocator: decoding
// a record at svc-spill's warm depth (112 observations) into a session and
// absorbing its first observation allocates at most 37 objects. The
// first Observe runs the LSO shift scan over a restored window, so
// scratch that grows by append shows here: while records carried predictor
// states the same cycle allocated 44, with the seven-family zoo 97, while
// each of the HB trio ran its own detector 129, and while the scan built
// prefix extrema arrays that way, 159.
func TestFaultInAllocs(t *testing.T) {
	const faultInAllocs = 37
	series := SyntheticSeries(1, 113, 5)[0]
	s := newSession(series.Path)
	for k := 0; k < 112; k++ {
		s.SetMeasurement(series.Inputs[k])
		s.Observe(series.Throughputs[k])
	}
	data, err := sessionCodec().Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		f, err := decodeSession(series.Path, data)
		if err != nil {
			t.Fatal(err)
		}
		f.Observe(series.Throughputs[112])
	})
	if allocs > faultInAllocs {
		t.Errorf("fault-in + first Observe allocates %.0f objects, want ≤ %d", allocs, faultInAllocs)
	}
}
